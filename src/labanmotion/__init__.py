"""labanmotion: skeleton motion -> Labanotation scores -> robot trajectories.

The pipeline has five stages, each usable on its own:

  skeleton    load/synthesize skeleton sequences, body coordinate frame
  keyframe    per-part motion energy and key-frame detection
  encoder     key poses -> direction/level symbols -> timed score
  robot       score -> joint-space key poses on a described robot
  trajectory  key poses -> sampled trajectories, motion dictionary

They share one Labanotation vocabulary, defined in ``laban`` alongside the
score model and file format: the symbols and their codes, the band centers
and direction formula, and the column layouts and column-name rules.
"""

from .errors import (
    BadDescriptor,
    BadInput,
    BadSymbol,
    DegeneratePose,
    InsufficientData,
    LabanMotionError,
    MalformedFrame,
    MissingColumn,
    NoKeyFrames,
    OutOfRange,
    ParseError,
    ShapeError,
    TimeOrderError,
    ValidationError,
)

__version__ = "0.1.0"

__all__ = [
    "BadDescriptor",
    "BadInput",
    "BadSymbol",
    "DegeneratePose",
    "InsufficientData",
    "LabanMotionError",
    "MalformedFrame",
    "MissingColumn",
    "NoKeyFrames",
    "OutOfRange",
    "ParseError",
    "ShapeError",
    "TimeOrderError",
    "ValidationError",
    "__version__",
]
