"""Complex-valued neural speech dereverberation with T-F self-attention."""

__version__ = "0.1.0"

from .ctensor import ComplexTensor, GradTape
from .model import DccrnModel, ModelConfig, complex_loss, enhance_waveform, train
from .signal import Spectrogram, WaveForm

__all__ = [
    "ComplexTensor",
    "GradTape",
    "DccrnModel",
    "ModelConfig",
    "Spectrogram",
    "WaveForm",
    "complex_loss",
    "enhance_waveform",
    "train",
    "__version__",
]
