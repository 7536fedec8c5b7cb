"""Tor-trace augmentation and limited-label website-trace classification.

The package provides burst-level trace augmentation, a direction-flip
baseline augmenter, the network-condition metric and its partitioning,
contrastive and pseudo-labeling loss machinery with analytic gradients, a
small verifiable encoder with three training phases (pre-train on
unlabeled traces, fine-tune on a few labeled ones, deploy), closed- and
open-world evaluation, a deterministic synthetic-trace generator, and a
CLI tying the pipeline together.
"""

__version__ = "0.3.0"

from .augment import AugmentConfig, flip_augment, net_augment
from .distributions import BurstSizeDistribution, build_distribution
from .evaluation import OpenWorldOutcome, closed_world_accuracy, open_world_eval, pr_curve
from .losses import SslConfig, nt_xent_loss
from .models import ModelDims, ModelParams, load_params, save_params
from .rng import RandomSource
from .traces import (
    DirectionTrace,
    FilterPolicy,
    TimedTrace,
    UNMONITORED,
    compute_ncm,
    filter_traces,
    partition_by_ncm,
    to_direction_trace,
)
from .training import TrainConfig, finetune, pretrain, strip_labels, train_netfm, train_supervised


__all__ = [
    "AugmentConfig",
    "BurstSizeDistribution",
    "DirectionTrace",
    "FilterPolicy",
    "ModelDims",
    "ModelParams",
    "OpenWorldOutcome",
    "RandomSource",
    "SslConfig",
    "TimedTrace",
    "TrainConfig",
    "UNMONITORED",
    "build_distribution",
    "closed_world_accuracy",
    "compute_ncm",
    "filter_traces",
    "finetune",
    "flip_augment",
    "load_params",
    "net_augment",
    "nt_xent_loss",
    "open_world_eval",
    "partition_by_ncm",
    "pr_curve",
    "pretrain",
    "save_params",
    "strip_labels",
    "to_direction_trace",
    "train_netfm",
    "train_supervised",
]
