"""Self-supervised domain adaptation toolkit for 3D point clouds.

Pretrains a shared point encoder by reconstructing deformed cloud regions
on the unlabelled target domain while training a classifier (or part
segmenter) on the labelled source domain, with point cloud mixup as a
second regularizer. Includes synthetic two-domain benchmarks, a fully
hand-rolled network with finite-difference-verified gradients, and a
Gaussian feature-alignment diagnostic.
"""

__version__ = "0.1.0"
