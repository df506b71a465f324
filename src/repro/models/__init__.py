"""Paper model architectures, CPU-scaled.

The paper trains ResNet20 (Cifar-10/100), VGG11 (GTSRB/CelebA), M18
(Speech Commands) and a 6-layer FCNN (Purchase100/Texas100).  This
package builds the same *families* at laptop scale: the FCNN keeps the
paper's exact layer structure (optionally at the paper's exact widths);
conv nets keep their family signature (residual blocks / VGG conv-pool
stacks / deep 1-D conv audio nets) at reduced width.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "audio": "build_audio_m5",
    "fcnn": "PAPER_FCNN_HIDDEN build_fcnn",
    "registry": "ModelBuilder available_models build_model",
    "resnet": "ResidualBlock build_resnet_small",
    "vgg": "build_vgg_small",
})

__all__ = [
    "ModelBuilder",
    "PAPER_FCNN_HIDDEN",
    "ResidualBlock",
    "available_models",
    "build_audio_m5",
    "build_fcnn",
    "build_model",
    "build_resnet_small",
    "build_vgg_small",
]
