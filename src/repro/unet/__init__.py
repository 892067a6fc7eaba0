"""U-Net model, trainer and inference pipeline for sea-ice classification."""

from .blocks import DecoderBlock, DoubleConv, EncoderBlock
from .compiled import CompiledUNet, compile_unet_plan
from .inference import (
    InferenceConfig,
    SceneClassifier,
    predict_batch_probabilities,
)
from .model import UNet, UNetConfig, build_unet, paper_unet_config, tiny_unet_config
from .trainer import EpochStats, TrainingHistory, UNetTrainer

__all__ = [
    "CompiledUNet",
    "compile_unet_plan",
    "DecoderBlock",
    "DoubleConv",
    "EncoderBlock",
    "InferenceConfig",
    "SceneClassifier",
    "predict_batch_probabilities",
    "UNet",
    "UNetConfig",
    "build_unet",
    "paper_unet_config",
    "tiny_unet_config",
    "EpochStats",
    "TrainingHistory",
    "UNetTrainer",
]
