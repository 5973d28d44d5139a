"""Quantize key poses into Labanotation symbols and assemble scores.

Directions are measured in the body frame: elevation against the up axis,
azimuth from forward toward left. The sphere is partitioned into eight
45-degree azimuth sectors by three levels, plus straight-up/straight-down
caps, so every unit vector maps to exactly one of the 26 limb symbols.

Poses become directions in :func:`column_directions`, which the robot's
``project_path`` also calls, and directions become symbol codes in one
array quantizer, :func:`direction_codes`.

Band boundaries (degrees):
    elevation  [67.5,  90]  Place High
               [22.5, 67.5) High
              (-22.5, 22.5) Middle
              (-67.5,-22.5] Low
              [-90, -67.5]  Place Low
    azimuth    [center - 22.5, center + 22.5) per sector, lower-closed
"""

from __future__ import annotations

import numpy as np

from .errors import BadInput, DegeneratePose, NoKeyFrames
from .keyframe import KeyFrameSet
from .laban import (ARM_COLUMNS, SECTOR_CENTER_DEG, SPLIT_COLUMNS, SYMBOL_CODES, VALID_LIMB_SYMBOLS, Cell,
                    Direction, LabanColumn, LabanScore, LabanSymbol, Level, direction_angles)
from .skeleton import (
    JOINT_INDEX,
    PARENT,
    BodyFrame,
    JointName,
    SkeletonSequence,
    body_frame,
    stacked_norm,
)

# Sector k is centered at azimuth 45k degrees, counterclockwise from forward
AZIMUTH_SECTORS: tuple[Direction, ...] = tuple(sorted(SECTOR_CENTER_DEG, key=lambda d: SECTOR_CENTER_DEG[d] % 360.0))

# Column name (laban.COLUMN_NAMES) -> distal joint whose parent-relative
# segment is digitized. Whole-arm columns use the forearm segment (wrist
# relative to elbow); split mode exposes upper arm and forearm separately.
COLUMN_DISTAL: dict[str, JointName] = {
    "LeftArm": JointName.WristLeft,
    "RightArm": JointName.WristRight,
    "LeftUpperArm": JointName.ElbowLeft,
    "RightUpperArm": JointName.ElbowRight,
    "LeftForearm": JointName.WristLeft,
    "RightForearm": JointName.WristRight,
    "Head": JointName.Head,
}

# --columns mode -> its column layout
COLUMN_MODES: dict[str, tuple[str, ...]] = {"arm": ARM_COLUMNS, "split": SPLIT_COLUMNS}


def columns_for_mode(mode: str) -> tuple[str, ...]:
    if mode not in COLUMN_MODES:
        raise ValueError(f"unknown columns mode: {mode!r}")
    return COLUMN_MODES[mode]


def segment_direction(pos: np.ndarray, distal: JointName, bf: BodyFrame | None = None) -> np.ndarray:
    """Unit direction of the distal joint relative to its parent, expressed
    as (forward, left, up) components of the pose's body frame.

    ``pos`` is a (..., 12, 3) position array; the result has shape (..., 3),
    and ``bf`` must have the same leading axes. A segment whose length
    overflows gives NaN components, which :func:`column_directions` rejects.
    """
    parent = PARENT[distal]
    if parent is None:
        raise DegeneratePose(f"{distal.value} has no parent")
    with np.errstate(over="ignore", invalid="ignore"):
        d = pos[..., JOINT_INDEX[distal], :] - pos[..., JOINT_INDEX[parent], :]
        norm = stacked_norm(d)
        if (norm < 1e-9).any():
            raise DegeneratePose(f"zero-length segment at {distal.value}")
        if bf is None:
            bf = body_frame(pos)
        return bf.to_body(d / norm[..., None])


def _check_unit(v: np.ndarray) -> None:
    """BadInput for the first of (..., 3) directions not of unit length, NaN included."""
    norm = stacked_norm(v).reshape(-1)
    off = ~(np.abs(norm - 1.0) <= 1e-6)
    if off.any():
        raise BadInput(f"expected a unit vector, |v| = {float(norm[np.argmax(off)])}")


def column_directions(positions: np.ndarray, columns: tuple[str, ...]) -> np.ndarray:
    """Body-frame direction of each column's segment (:data:`COLUMN_DISTAL`)
    in each pose of an (m, 12, 3) array: an (m, len(columns), 3) array, from
    one body frame for all poses. The body frame is checked first, then each
    column in order: a zero-length segment (DegeneratePose naming the
    column), then a direction that is not of unit length (BadInput)."""
    bf = body_frame(positions)
    out = np.empty((len(positions), len(columns), 3))
    for c, column in enumerate(columns):
        try:
            v = segment_direction(positions, COLUMN_DISTAL[column], bf)
        except DegeneratePose as exc:
            raise DegeneratePose(f"column {column}: {exc}") from exc
        _check_unit(v)
        out[:, c] = v
    return out


# Elevation bands from the top: a polar cap is a whole Place symbol, the
# bands between the caps are levels
_ELEVATION_BANDS: tuple[LabanSymbol | Level, ...] = (
    LabanSymbol(Direction.Place, Level.High), Level.High, Level.Middle, Level.Low, LabanSymbol(Direction.Place, Level.Low),
)

# _BAND_CODES[band, sector]: code of the symbol of an elevation band and an
# azimuth sector; a cap's row repeats its one symbol
_BAND_CODES: np.ndarray = np.array([
    [SYMBOL_CODES[band if isinstance(band, LabanSymbol) else LabanSymbol(d, band)] for d in AZIMUTH_SECTORS]
    for band in _ELEVATION_BANDS
], dtype=np.intp)


def _bands(el: np.ndarray) -> np.ndarray:
    """Index in _ELEVATION_BANDS of each elevation angle's band. Caps are
    closed at 67.5, High/Low own their 22.5 boundaries."""
    return 2 - (el >= 22.5) - (el >= 67.5) + (el <= -22.5) + (el <= -67.5)


def _sectors(azimuth_deg: np.ndarray) -> np.ndarray:
    """Index in AZIMUTH_SECTORS of each azimuth angle's sector; sectors are
    closed at their lower edge. A non-finite angle has no sector."""
    if not np.isfinite(azimuth_deg).all():
        raise ValueError("a non-finite azimuth has no sector")
    return (np.floor((azimuth_deg + 22.5) / 45.0) % 8.0).astype(np.intp)


def direction_codes(directions: np.ndarray) -> np.ndarray:
    """Symbol codes of (..., 3) unit body-frame directions (x forward, y
    left, z up) as a flat intp array, from their angles
    (:func:`~labanmotion.laban.direction_angles`) by the band boundaries."""
    azimuth, elevation = direction_angles(np.asarray(directions, dtype=float).reshape(-1, 3))
    return _BAND_CODES[_bands(elevation), _sectors(azimuth)]


def encode_poses(positions: np.ndarray, columns: tuple[str, ...] = ARM_COLUMNS) -> np.ndarray:
    """Symbol codes (see :data:`~labanmotion.laban.SYMBOL_CODES`) of each pose
    of an (m, 12, 3) array: an (m, len(columns)) intp array, column c for
    ``columns[c]``.

    The directions of all poses come from one :func:`column_directions` call
    and their codes from one :func:`direction_codes` call. An error names
    the first pose that fails on its own: its body frame, then each column
    in order, as encoding pose by pose would.
    """
    try:
        directions = column_directions(positions, columns)
    except (DegeneratePose, BadInput):
        for i in range(len(positions)):
            column_directions(positions[i:i + 1], columns)
        raise
    return direction_codes(directions).reshape(len(positions), len(columns))


def encode_pose(pos: np.ndarray, columns: tuple[str, ...] = ARM_COLUMNS) -> dict[str, LabanSymbol]:
    """Symbols per column for one (12, 3) pose: one row of
    :func:`encode_poses`. No command calls it; it is kept because the
    benchmark's tracer names it."""
    codes = encode_poses(np.asarray(pos)[None], columns)[0].tolist()
    return {col: VALID_LIMB_SYMBOLS[code] for col, code in zip(columns, codes)}


def encode_sequence(
    seq: SkeletonSequence,
    kfs: KeyFrameSet,
    columns: tuple[str, ...] = ARM_COLUMNS,
) -> LabanScore:
    """Build a score with one cell per column per merged key frame.

    Cell k covers (t_{k-1}, t_k] with the code of the pose at key frame k;
    the first cell starts at 0. Consecutive cells with identical codes are
    coalesced. A key frame at t = 0 would yield an empty interval and is
    skipped.
    """
    ts = seq.times
    merged = [i for i in kfs.merged if ts[i] > 0.0]
    if not merged:
        raise NoKeyFrames("no merged key frames to encode")
    # microsecond quantization keeps cell arithmetic consistent with the
    # score file format's 6-decimal times
    key_times = [round(float(ts[i]), 6) for i in merged]
    key_codes = encode_poses(seq.positions[merged], columns)

    laban_columns = []
    for column, codes in zip(columns, key_codes.T.tolist()):
        cells: list[Cell] = []
        prev_t = 0.0
        for t, code in zip(key_times, codes):
            if cells and cells[-1].code == code:
                last = cells[-1]
                cells[-1] = Cell(code, last.start, t - last.start)
            else:
                cells.append(Cell(code, prev_t, t - prev_t))
            prev_t = t
        laban_columns.append(LabanColumn(name=column, cells=tuple(cells)))

    rate = seq.sample_rate
    meta = (("sample_rate", "" if rate is None else f"{rate:g}"),)
    return LabanScore(columns=tuple(laban_columns), total_duration=key_times[-1], meta=meta)
