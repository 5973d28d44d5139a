"""Joint-space trajectories between key poses, and the motion dictionary.

Two interpolation modes connect decoded key poses: ``linear`` (straight
segments) and ``cubic`` (per-segment Hermite with zero velocity at every key
pose, so each key reads as a brief stop). The motion dictionary stores
observed intermediate joint paths keyed by the text of (start state, end
state) pairs of column symbols (:func:`dict_key`); replaying a familiar
transition bumps that path's count, novel ones are appended, and counts
define transition probabilities. During synthesis, dictionary paths are
time-warped onto the key-pose interval and their endpoint residuals are
blended out linearly so the result still passes exactly through the key
poses; uncovered transitions fall back to plain interpolation. Key poses,
observed paths and warps all go through one block-wise interpolator,
:func:`~labanmotion.skeleton._rows_at`.

Every timed set of joint angles here is a :class:`~labanmotion.robot.KeyPoses`:
the key poses going in, the dictionary paths (on normalized time, 0 to 1)
and the sampled trajectory coming out.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence

import numpy as np

from .errors import (BadInput, InsufficientData, ParseError, ShapeError, ValidationError, finite, json_numbers,
                     read_json, read_text)
from .laban import COLUMN_NAMES, VALID_LIMB_SYMBOLS
from .robot import KeyPoses
from .skeleton import _block_rows, _rows_at, uniform_grid

PATH_SAMPLES = 32
DEFAULT_TAU_DEG = 10.0
# the normalized times of every loaded dictionary path, shared read-only
_PATH_TIMES = np.linspace(0.0, 1.0, PATH_SAMPLES)
_PATH_TIMES.flags.writeable = False
# "Direction.Level" by symbol code, and every "Column=Direction.Level" item
# that one side of a key may hold
_SYMBOL_TEXT = tuple(map(str, VALID_LIMB_SYMBOLS))
_KEY_ITEMS = frozenset(f"{col}={sym}" for col in COLUMN_NAMES for sym in _SYMBOL_TEXT)


class DictPath:
    def __init__(self, motion: KeyPoses, count: int):
        self.motion = motion  # PATH_SAMPLES poses on normalized time, np.linspace(0, 1, PATH_SAMPLES)
        self.count = count


class DictEntry:
    def __init__(self, paths: list[DictPath] | None = None):
        self.paths = [] if paths is None else paths

    def probabilities(self) -> list[float]:
        total = sum(p.count for p in self.paths)
        return [p.count / total for p in self.paths]


def dict_key(columns: Sequence[str], from_codes: Sequence[int], to_codes: Sequence[int]) -> str:
    """The key of a transition between two rows of symbol codes over
    ``columns``: per side, ``Column=Direction.Level`` for each column whose
    code is not -1 (no symbol in force), columns sorted and joined by ``,``;
    the two sides joined by ``->``. ``dict build`` and :func:`synthesize`
    both make their keys here, over the robot's mapped columns."""
    def side(codes):
        return ",".join(f"{col}={_SYMBOL_TEXT[code]}" for col, code in sorted(zip(columns, codes)) if code >= 0)

    return f"{side(from_codes)}->{side(to_codes)}"


def _key_fault(text: str) -> str | None:
    """Why :func:`dict_key` never gives ``text``, or None if it can: not
    exactly one ``->``, an item that is not a column of
    :data:`~labanmotion.laban.COLUMN_NAMES` with a limb symbol, or columns
    out of sorted order or repeated."""
    if text.count("->") != 1:
        return "expected one ->"
    for side in text.split("->"):
        items = side.split(",") if side else []
        unknown = [item for item in items if item not in _KEY_ITEMS]
        if unknown:
            return f"{unknown[0]!r} is not a Column=Direction.Level item"
        columns = [item.partition("=")[0] for item in items]
        if columns != sorted(set(columns)):
            return "columns must be sorted and distinct"
    return None


class MotionDictionary:
    def __init__(self, tau: float = DEFAULT_TAU_DEG, entries: dict[str, DictEntry] | None = None):
        finite(tau, "tau", 0.0, strict=True)
        self.tau = tau
        self.entries = {} if entries is None else entries


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

# interpolation mode -> blend weight of normalized segment time tau (a float
# or an array); cubic Hermite with zero endpoint velocities is the smoothstep
INTERP_MODES = {
    "linear": lambda tau: tau,
    "cubic": lambda tau: tau * tau * (3.0 - 2.0 * tau),
}


# ---------------------------------------------------------------------------
# Motion dictionary
# ---------------------------------------------------------------------------

def resample_path(poses: KeyPoses) -> KeyPoses:
    """Linear resampling onto the PATH_SAMPLES uniform points of normalized
    time that every dictionary path shares (:data:`_PATH_TIMES`)."""
    if len(poses) < 2:
        raise InsufficientData("need at least 2 observed samples")
    u = (poses.times - poses.times[0]) / (poses.times[-1] - poses.times[0])
    return KeyPoses(_PATH_TIMES, poses.joints, _rows_at(u, poses.samples, _PATH_TIMES)[2])


def path_distance(a: KeyPoses, b: KeyPoses) -> float:
    """RMS angular difference over all samples and joints, degrees."""
    if a.joints != b.joints or a.samples.shape != b.samples.shape:
        raise ShapeError("paths differ in joints or sample count")
    diff = a.samples - b.samples
    return float(np.sqrt(np.mean(diff * diff)))


def dict_update(mdict: MotionDictionary, key: str, observed: KeyPoses) -> MotionDictionary:
    """Fold one observed transition into the dictionary.

    The observation is resampled to the fixed path length; if its nearest
    stored path (lowest index on ties) is closer than tau, that path's count
    is bumped, otherwise the observation becomes a new path with count 1.
    A path with a non-finite angle, which the dictionary file cannot hold,
    raises BadInput naming the key and leaves the dictionary unchanged.
    """
    motion = resample_path(observed)
    if not np.isfinite(motion.samples).all():
        raise BadInput(f"dictionary key {key}: non-finite angle in the observed path")
    entry = mdict.entries.get(key)
    if entry is None:
        mdict.entries[key] = DictEntry(paths=[DictPath(motion=motion, count=1)])
        return mdict
    best_d, best_i = min(((path_distance(motion, p.motion), i) for i, p in enumerate(entry.paths)),
                         default=(math.inf, -1))
    if best_d < mdict.tau:
        entry.paths[best_i].count += 1
    else:
        entry.paths.append(DictPath(motion=motion, count=1))
    return mdict


def dict_lookup(mdict: MotionDictionary, key: str) -> KeyPoses | None:
    """Highest-probability path for a key (ties pick the lowest index)."""
    entry = mdict.entries.get(key)
    if entry is None or not entry.paths:
        return None
    return max(entry.paths, key=lambda p: p.count).motion


def synthesize(
    keyposes: KeyPoses,
    codes: np.ndarray | None,
    mdict: MotionDictionary | None,
    mode: str,
    rate: float,
    columns: Sequence[str] = (),
) -> KeyPoses:
    """Trajectory through the key poses, preferring dictionary paths, sampled
    at ``rate`` from the first key-pose time to the last. Fewer than two key
    poses, once the rate and mode are checked, are their own trajectory.

    ``codes`` holds one row of symbol codes per key pose over ``columns``
    (a decode's ``codes`` and ``columns``). For each adjacent key-pose pair,
    a stored path for the transition between their rows
    (:func:`dict_key`) is time-warped onto the interval and shifted by the
    linear ramp of its endpoint residuals; transitions without a stored
    path use plain interpolation. The result passes through every key pose.

    The (m, J) result is allocated once and :func:`~labanmotion.skeleton._rows_at`
    fills it block by block, dictionary warps too; beside it only the (m,)
    grid, segment index and normalized segment times grow with the samples.
    """
    finite(rate, "trajectory rate", 0.0, strict=True)
    if mode not in INTERP_MODES:
        raise ValueError(f"unknown interpolation mode: {mode!r}")
    if len(keyposes) < 2:
        return keyposes
    times, joints, angles = keyposes.times, keyposes.joints, keyposes.samples
    if codes is not None and np.shape(codes) != (len(keyposes), len(columns)):
        raise ShapeError("codes must have one row per key pose and one column per state column")

    grid = uniform_grid(float(times[0]), float(times[-1]), rate)
    idx, tau, rows = _rows_at(times, angles, grid, INTERP_MODES[mode])
    if mdict is not None and codes is not None:
        # idx is sorted, so segment k's samples are rows[bounds[k]:bounds[k + 1]]
        bounds = np.searchsorted(idx, np.arange(len(times)))
        block = _block_rows(len(joints))
        code_rows = np.asarray(codes).tolist()
        for k in range(len(keyposes) - 1):
            path = dict_lookup(mdict, dict_key(columns, code_rows[k], code_rows[k + 1]))
            if path is None:
                continue
            if path.joints != joints:
                raise ShapeError("dictionary path joints do not match key poses")
            res0, res1 = angles[k] - path.samples[0], angles[k + 1] - path.samples[-1]
            for a in range(bounds[k], bounds[k + 1], block):
                part = slice(a, min(a + block, bounds[k + 1]))
                tk, out = tau[part], rows[part]
                _rows_at(path.times, path.samples, tk, out=out)
                out += (1.0 - tk)[:, None] * res0
                out += tk[:, None] * res1
    return KeyPoses(grid, joints, rows)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# |v|·1e6 must stay below 2**52, where every half-integer is a double; larger
# and non-finite values are formatted by the per-row `%` path
_CSV_EXACT_LIMIT = 2.0**52 / 1e6


def _csv_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The uint32 words that :func:`_csv_words` gathers, four characters
    each, by 3-digit group g; a 0 byte is pad (NUL).

    Integer part: 1000·sign + g is a leading group g without leading zeros,
    behind its sign ('-' or pad); _NUL_WORD is a group above the leading
    one, all pad; _INNER + g is a group below it, zero-padded. Decimals: '.'
    and the first three; the last three and ',', or '\\n' at 1000 + g.
    """
    group = np.arange(1000)
    digits = tuple(d + ord("0") for d in (group // 100, group // 10 % 10, group % 10))
    lead = (np.where(group >= 100, digits[0], 0), np.where(group >= 10, digits[1], 0), digits[2])

    def words(*chars):  # byte k of word g is chars[k][g], or chars[k] where that is one number
        return np.column_stack(np.broadcast_arrays(*chars)).astype(np.uint8).view(np.uint32).ravel()

    integer = np.concatenate([words(0, *lead), words(ord("-"), *lead), np.zeros(1, np.uint32), words(*digits, 0)])
    return integer, words(ord("."), *digits), np.concatenate([words(*digits, ord(",")), words(*digits, ord("\n"))])


_CSV_INT, _CSV_POINT, _CSV_END = _csv_tables()
_NUL_WORD, _INNER = 2000, 2001


def _micros(block: np.ndarray, y: np.ndarray) -> np.ndarray:
    """rint(|v|·1e6) as int64: the integer that ``'%.6f' % v`` writes, for a
    block with every |v| < _CSV_EXACT_LIMIT whose magnitudes |v| ``y`` holds.
    The integers land in y's memory.

    rint(|v|·1e6) is the correctly rounded (half-even) integer of the exact
    product unless the rounded product is a half-integer; only there may the
    exact product lie on either side, so those values take their integer
    from ``%``.
    """
    y *= 1e6
    r = np.rint(y)
    y -= r  # in place: |y - r| is |r - y|
    if np.abs(y, out=y).max() == 0.5:
        tie = y == 0.5
        r[tie] = [float(("%.6f" % m).replace(".", "")) for m in np.abs(block[tie]).tolist()]
    micros = y.view(np.int64)  # y's memory, no longer read, takes the integers
    np.copyto(micros, r, casting="unsafe")
    return micros


def _csv_words(block: np.ndarray, y: np.ndarray, largest: float, buffer: bytearray) -> None:
    """Fill ``buffer`` with the words of a block's rows, resizing it if the
    block needs another size: per value, its integer part's 3-digit groups,
    then '.ddd', then 'ddd,' (or 'ddd\\n' in a row's last field). ``y`` holds
    the block's magnitudes and ``largest`` their maximum; :func:`_micros`
    overwrites ``y``. The sign comes from the sign bit, so -0.0 and negatives
    that round to zero print ``-0.000000``.

    Each split is a floor division by a Python int, which numpy does
    without a hardware divide, and a multiply and subtract for the
    remainder. Every gather index is in its table's range by construction,
    so ``np.take`` skips the bounds check (``mode="clip"``).
    """
    # `%` rounds monotonically, so the largest magnitude has the most integer digits
    n_groups = -(-("%.6f" % largest).index(".") // 3)
    frac = _micros(block, y)
    whole = np.floor_divide(frac, 1000000)
    frac -= whole * 1000000
    size = block.size * (n_groups + 2) * 4
    if len(buffer) != size:
        buffer[:] = b"\0"
        buffer *= size  # resized in place: no second buffer-sized object
    words = np.frombuffer(buffer, np.uint32).reshape(*block.shape, n_groups + 2)
    sign = np.signbit(block) * np.int16(1000)  # the offset of the '-' words
    # each group's word index, then the first three decimals; a lone group's
    # index takes the place of whole, which no mask reads
    index = whole if n_groups == 1 else np.empty_like(whole)
    rest = whole
    for slot in range(n_groups - 1, -1, -1):  # last group first
        group = rest
        if slot:
            rest = np.floor_divide(group, 1000)
            group = group - 1000 * rest
        unit = 1000 ** (n_groups - 1 - slot)  # the place value of the group's last digit
        np.add(sign, group, out=index)
        if slot < n_groups - 1:  # a group above the leading one is all pad
            index[whole < unit] = _NUL_WORD
        if slot:  # a group below the leading one is zero-padded
            np.copyto(index, _INNER + group, where=whole >= 1000 * unit)
        np.take(_CSV_INT, index, out=words[..., slot], mode="clip")
    del whole, rest, group, sign
    np.floor_divide(frac, 1000, out=index)  # the first three decimals
    np.take(_CSV_POINT, index, out=words[..., -2], mode="clip")
    index *= 1000
    frac -= index  # the last three decimals
    frac[:, -1] += 1000
    np.take(_CSV_END, frac, out=words[..., -1], mode="clip")


def trajectory_to_csv(traj: KeyPoses, fh) -> None:
    """Write the header ``t,<joint>,...`` and one ``%.6f`` row per sample to
    ``fh``, a file opened for binary writing, as UTF-8 bytes.

    Rows are formatted in blocks of about 16K values (``_BLOCK_VALUES``:
    2,048 rows at 8 columns) by an array formatter that writes the same
    bytes as ``%``. Per block, one ``abs`` pass fills a scratch array that
    the call allocates once; its maximum is the range check: a block
    holding a non-finite value or a magnitude of 2**52 / 1e6 (about 4.5e9)
    or more is formatted by ``%`` row by row. Otherwise :func:`_micros`
    rounds each |v|·1e6 to an integer in the scratch's memory, and floor
    divisions by constant ints, each followed by a multiply and a subtract
    for the remainder, split it into 3-digit groups: the integer part's
    groups, then two groups of decimals. Each group is an index into a
    small table of uint32 words, four characters each, which ``np.take``
    gathers into a buffer that the blocks reuse: the sign and the leading
    group without its leading zeros, every later integer group
    zero-padded, '.' with the first three decimals, and the last three
    decimals with ',' or '\\n'. Bytes that a word does not need are NUL,
    and one ``translate`` drops them. Each block's bytes are
    written as soon as they are formatted, so memory stays one block's
    worth whatever the row count and the joint count.
    """
    fh.write(("t," + ",".join(traj.joints) + "\n").encode("utf-8"))
    row = ",".join(["%.6f"] * (len(traj.joints) + 1)) + "\n"
    buffer = bytearray()
    n = _block_rows(len(traj.joints) + 1)
    block_rows = np.empty((min(len(traj.times), n), len(traj.joints) + 1))  # refilled per block
    magnitudes = np.empty_like(block_rows)  # |block|, then its micros
    for a in range(0, len(traj.times), n):
        block = block_rows[:len(traj.times) - a]
        block[:, 0] = traj.times[a:a + n]
        block[:, 1:] = traj.samples[a:a + n]
        y = np.abs(block, out=magnitudes[:len(block)])
        largest = y.max()
        if largest < _CSV_EXACT_LIMIT:  # False for NaN and inf
            _csv_words(block, y, largest, buffer)
            fh.write(buffer.translate(None, b"\0"))
        else:
            fh.write("".join(row % tuple(r) for r in block.tolist()).encode("ascii"))


def serialize_dictionary(mdict: MotionDictionary) -> str:
    """Deterministic JSON: sorted keys, full-precision floats."""
    lines = ["{", f'  "samples_per_path": {PATH_SAMPLES},', f'  "tau": {mdict.tau!r},', '  "entries": {']
    keys = sorted(mdict.entries)
    for ki, key in enumerate(keys):
        paths = mdict.entries[key].paths
        lines.append(f"    {json.dumps(key)}: [")
        for pi, p in enumerate(paths):
            path = {"count": p.count, "joints": list(p.motion.joints), "samples": p.motion.samples.tolist()}
            lines.append(f"      {json.dumps(path)}" + ("," if pi + 1 < len(paths) else ""))
        lines.append("    ]" + ("," if ki + 1 < len(keys) else ""))
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def _parse_path(p, where: str) -> DictPath:
    if not isinstance(p, dict):
        raise ParseError(where, "expected an object")
    count, joints, rows = p.get("count"), p.get("joints"), p.get("samples")
    if type(count) is not int:
        raise ParseError(f"{where}.count", "expected an integer")
    if not isinstance(joints, list) or not set(map(type, joints)) <= {str}:
        raise ParseError(f"{where}.joints", "expected a list of joint names")
    # one flat list of every angle, row after row: the checks and the
    # conversion run over it in C, with no shape discovery of nested rows
    is_rows = isinstance(rows, list) and set(map(type, rows)) <= {list}
    values = list(itertools.chain.from_iterable(rows)) if is_rows else []
    if not (is_rows and json_numbers(values)):
        raise ParseError(f"{where}.samples", "expected a list of rows of numbers")
    if count < 1:
        raise ValidationError([f"{where}.count: must be at least 1, got {count}"])
    if joints != sorted(set(joints)):
        raise ValidationError([f"{where}.joints: joint names must be sorted and distinct"])
    if len(rows) != PATH_SAMPLES or set(map(len, rows)) - {len(joints)}:
        raise ValidationError([f"{where}.samples: expected {PATH_SAMPLES} rows of {len(joints)} angles"])
    try:
        samples = np.array(values, dtype=float).reshape(PATH_SAMPLES, len(joints))
        all_finite = bool(np.all(np.isfinite(samples)))
    except OverflowError:  # an integer beyond the float range
        all_finite = False
    if not all_finite:
        raise ValidationError([f"{where}.samples: non-finite angle"])
    return DictPath(motion=KeyPoses(_PATH_TIMES, joints, samples), count=count)


def parse_dictionary(text: str) -> MotionDictionary:
    """Inverse of :func:`serialize_dictionary`.

    Malformed JSON, wrong types and a key that :func:`dict_key` cannot give
    raise ParseError; a ``samples_per_path`` other than PATH_SAMPLES, a key
    with no paths, path joints out of sorted order or repeated, a path that
    is not PATH_SAMPLES rows of one angle per joint, a non-finite angle, a
    count below 1 and a tau that is not a finite number > 0 raise
    ValidationError.
    """
    obj = read_json(text)
    if obj.get("samples_per_path") != PATH_SAMPLES:
        raise ValidationError([f"$.samples_per_path: expected {PATH_SAMPLES}, got {obj.get('samples_per_path')!r}"])
    tau, entries = obj.get("tau"), obj.get("entries")
    if not json_numbers([tau]):
        raise ParseError("$.tau", "expected a number")
    mdict = MotionDictionary(tau=finite(tau, "$.tau", 0.0, strict=True, error=ValidationError))
    if not isinstance(entries, dict):
        raise ParseError("$.entries", "expected an object")
    for key, paths in entries.items():
        where = f"$.entries[{json.dumps(key)}]"
        fault = _key_fault(key)
        if fault:
            raise ParseError(where, f"not a (from-state)->(to-state) key: {fault}")
        if not isinstance(paths, list):
            raise ParseError(where, "expected a list of paths")
        if not paths:
            raise ValidationError([f"{where}: no paths"])
        mdict.entries[key] = DictEntry(paths=[_parse_path(p, f"{where}[{i}]") for i, p in enumerate(paths)])
    return mdict


def save_dictionary(mdict: MotionDictionary, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_dictionary(mdict))


def load_dictionary(path: str) -> MotionDictionary:
    return parse_dictionary(read_text(path))
