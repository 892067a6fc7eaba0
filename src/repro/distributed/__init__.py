"""Distributed U-Net training: the elastic trainer, the all-reduce traffic model and the DGX model."""

from .allreduce import AllReduceStats, naive_allreduce, ring_allreduce
from .elastic import ElasticTrainer, ElasticTrainingError, RingBroken, latest_checkpoints
from .perfmodel import PAPER_TABLE3_ROWS, DGXTrainingModel, paper_table3

__all__ = [
    "AllReduceStats",
    "naive_allreduce",
    "ring_allreduce",
    "ElasticTrainer",
    "ElasticTrainingError",
    "RingBroken",
    "latest_checkpoints",
    "PAPER_TABLE3_ROWS",
    "DGXTrainingModel",
    "paper_table3",
]
