"""Classroom voice detection: scene simulation, multi-scale TCN training, streaming inference.

The autodiff ops stay in ``classvoice.autodiff``; ``__all__`` is the rest of the public API.
"""
from .autodiff import GraphError, NonFiniteError, ShapeError, Tensor
from .model import (CATEGORY_ORDER, Category, Checkpoint, ModelConfig, MultiScaleTCN, decode, load_checkpoint,
                    param_count, receptive_field, reduced_config, save_checkpoint)
from .simulate import (Corpora, Corpus, CorpusError, LabeledSample, RirCache, RoomError, RoomSpec, SceneGrid,
                       SceneSpec, generate_dataset, image_source_rir, make_sample, write_synthetic_corpus)
from .streaming import (HOP_SECONDS, WINDOW_SECONDS, AudioTooShortError, Decision, DecisionTrack,
                        SessionClosedError, StreamingSession, decisions_to_segments, infer_offline, infer_streaming)
from .training import (EvalReport, TrainConfig, TrainingDivergedError, evaluate, load_sample, read_manifest,
                       train)
from .wavio import WavFile, WavFormatError, read_wav, write_wav

__all__ = [
    "GraphError", "NonFiniteError", "ShapeError", "Tensor",
    "CATEGORY_ORDER", "Category", "Checkpoint", "ModelConfig", "MultiScaleTCN", "decode", "load_checkpoint",
    "param_count", "receptive_field", "reduced_config", "save_checkpoint",
    "Corpora", "Corpus", "CorpusError", "LabeledSample", "RirCache", "RoomError", "RoomSpec", "SceneGrid",
    "SceneSpec", "generate_dataset", "image_source_rir", "make_sample", "write_synthetic_corpus",
    "HOP_SECONDS", "WINDOW_SECONDS", "AudioTooShortError", "Decision", "DecisionTrack",
    "SessionClosedError", "StreamingSession", "decisions_to_segments", "infer_offline", "infer_streaming",
    "EvalReport", "TrainConfig", "TrainingDivergedError", "evaluate", "load_sample", "read_manifest", "train",
    "WavFile", "WavFormatError", "read_wav", "write_wav",
]
