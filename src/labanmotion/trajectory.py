"""Joint-space trajectories between key poses, and the motion dictionary.

Two interpolation modes connect decoded key poses: ``linear`` (straight
segments) and ``cubic`` (per-segment Hermite with zero velocity at every key
pose, so each key reads as a brief stop). The motion dictionary stores
observed intermediate joint paths keyed by (start state, end state) pairs of
column symbols; replaying a familiar transition bumps that path's count,
novel ones are appended, and counts define transition probabilities. During
synthesis, dictionary paths are time-warped onto the key-pose interval and
their endpoint residuals are blended out linearly so the result still passes
exactly through the key poses; uncovered transitions fall back to plain
interpolation.

Every timed set of joint angles here is a :class:`~labanmotion.robot.KeyPoses`:
the key poses going in, the dictionary paths (on normalized time, 0 to 1)
and the sampled trajectory coming out.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .errors import InsufficientData, ParseError, ShapeError, ValidationError, finite, json_numbers, read_json
from .laban import CODE_TOKENS, COLUMN_NAMES
from .robot import KeyPoses, ordered_times
from .skeleton import uniform_grid

PATH_SAMPLES = 32
DEFAULT_TAU_DEG = 10.0
# the normalized times of every loaded dictionary path, shared read-only
_PATH_TIMES = ordered_times(np.linspace(0.0, 1.0, PATH_SAMPLES))


class DictPath:
    def __init__(self, motion: KeyPoses, count: int):
        self.motion = motion  # PATH_SAMPLES poses on normalized time, np.linspace(0, 1, PATH_SAMPLES)
        self.count = count


class DictEntry:
    def __init__(self, paths: list[DictPath] | None = None):
        self.paths = [] if paths is None else paths

    @property
    def total(self) -> int:
        return sum(p.count for p in self.paths)

    def probabilities(self) -> list[float]:
        total = self.total
        return [p.count / total for p in self.paths]


class DictKey(NamedTuple):
    """Canonical (start state, end state) pair of column symbol maps: per
    side, ``(column, direction, level)`` for each column with a symbol in
    force, columns sorted."""

    from_state: tuple[tuple[str, str, str], ...]
    to_state: tuple[tuple[str, str, str], ...]

    @classmethod
    def of(cls, columns: Sequence[str], from_codes: Sequence[int], to_codes: Sequence[int]) -> "DictKey":
        """The key of a transition between two rows of symbol codes over
        ``columns``, skipping columns whose code is -1 (no symbol in force).
        ``dict build`` and :func:`synthesize` both make their keys here, over
        the robot's mapped columns."""
        def side(codes):
            return tuple((col, *CODE_TOKENS[code]) for col, code in sorted(zip(columns, codes)) if code >= 0)

        return cls(side(from_codes), side(to_codes))

    def __str__(self) -> str:
        def side(items):
            return ",".join(f"{c}={d}.{l}" for c, d, l in items)

        return f"{side(self.from_state)}->{side(self.to_state)}"

    @classmethod
    def parse(cls, text: str) -> "DictKey":
        """Inverse of ``str``; ValueError for text that :meth:`of` never
        gives: an unknown or non-limb symbol, a column name outside
        :data:`~labanmotion.laban.COLUMN_NAMES`, or columns out of sorted
        order or repeated."""
        def side(part: str):
            items = []
            if part:
                for tok in part.split(","):
                    col, _, sym = tok.partition("=")
                    d, _, l = sym.partition(".")
                    if (d, l) not in CODE_TOKENS:
                        raise ValueError(f"{sym} is not a limb symbol")
                    items.append((col, d, l))
            columns = [col for col, _, _ in items]
            if columns != sorted(set(columns)):
                raise ValueError("columns must be sorted and distinct")
            unknown = [col for col in columns if col not in COLUMN_NAMES]
            if unknown:
                raise ValueError(f"{unknown[0]} is not a column name")
            return tuple(items)

        a, _, b = text.partition("->")
        return cls(side(a), side(b))


class MotionDictionary:
    def __init__(self, tau: float = DEFAULT_TAU_DEG, entries: dict[DictKey, DictEntry] | None = None):
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


def _blend(mode: str, tau):
    if mode not in INTERP_MODES:
        raise ValueError(f"unknown interpolation mode: {mode!r}")
    return INTERP_MODES[mode](tau)


def _segment_index(times: np.ndarray, t):
    """The index of the key-pose segment holding each time ``t``, clipped to
    the first and last segment: ``clip(searchsorted(times, t, "right") - 1, 0,
    k - 2)`` for k key times. A sorted (m,) array, such as a sampling grid,
    takes one search per inner key time instead of one per sample."""
    if np.ndim(t) == 1 and np.all(t[1:] >= t[:-1]):
        # segment j holds the samples from the first at or past times[j] (the
        # first sample for j = 0) up to the next segment's first
        bounds = np.concatenate(([0], np.searchsorted(t, times[1:-1]), [len(t)]))
        return np.repeat(np.arange(len(times) - 1, dtype=np.intp), np.diff(bounds))
    return np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)


def _rows_at(times: np.ndarray, angles: np.ndarray, mode: str, t):
    """(segment index, normalized segment time, angles) at time(s) ``t``, a
    float or an (m,) array; times outside the key-pose span hold the end
    poses."""
    idx = _segment_index(times, t)
    tau = np.clip((t - times[idx]) / np.diff(times)[idx], 0.0, 1.0)
    # angles[idx] + blend * (angles[idx + 1] - angles[idx]) in the same IEEE
    # operations, with one (m, J) temporary beside the result
    step = np.take(np.diff(angles, axis=0), idx, axis=0)
    step *= _blend(mode, tau)[..., None]
    rows = np.take(angles, idx, axis=0)
    rows += step
    return idx, tau, rows


def evaluate(keyposes: KeyPoses, mode: str, t: float) -> dict[str, float]:
    """Interpolated angles at an arbitrary time within the key-pose span."""
    if len(keyposes) < 2:
        raise InsufficientData("need at least 2 key poses")
    row = _rows_at(keyposes.times, keyposes.samples, mode, t)[2]
    return {j: float(row[i]) for i, j in enumerate(keyposes.joints)}


def interpolate(keyposes: KeyPoses, mode: str, rate: float) -> KeyPoses:
    """Uniformly sampled trajectory through the key poses.

    Samples that land exactly on key-pose times reproduce those poses; per
    joint and per segment the samples stay between the endpoint angles, so
    limits honored by the key poses are honored by the whole trajectory.
    This is :func:`synthesize` without a dictionary.
    """
    return synthesize(keyposes, None, None, mode, rate)


# ---------------------------------------------------------------------------
# Motion dictionary
# ---------------------------------------------------------------------------

def resample_path(poses: KeyPoses, n: int = PATH_SAMPLES) -> KeyPoses:
    """Per-joint linear resampling onto n uniform points of normalized time,
    ``np.linspace(0, 1, n)``."""
    if len(poses) < 2:
        raise InsufficientData("need at least 2 observed samples")
    times = poses.times
    u = (times - times[0]) / (times[-1] - times[0])
    grid = np.linspace(0.0, 1.0, n)
    out = np.column_stack([np.interp(grid, u, poses.samples[:, c]) for c in range(len(poses.joints))])
    return KeyPoses(grid, poses.joints, out)


def path_distance(a: KeyPoses, b: KeyPoses) -> float:
    """RMS angular difference over all samples and joints, degrees."""
    if a.joints != b.joints or a.samples.shape != b.samples.shape:
        raise ShapeError("paths differ in joints or sample count")
    diff = a.samples - b.samples
    return float(np.sqrt(np.mean(diff * diff)))


def dict_update(mdict: MotionDictionary, key: DictKey, observed: KeyPoses) -> MotionDictionary:
    """Fold one observed transition into the dictionary.

    The observation is resampled to the fixed path length; if its nearest
    stored path (lowest index on ties) is closer than tau, that path's count
    is bumped, otherwise the observation becomes a new path with count 1.
    """
    motion = resample_path(observed)
    entry = mdict.entries.get(key)
    if entry is None:
        mdict.entries[key] = DictEntry(paths=[DictPath(motion=motion, count=1)])
        return mdict
    best_i = -1
    best_d = math.inf
    for i, p in enumerate(entry.paths):
        d = path_distance(motion, p.motion)
        if d < best_d:
            best_d = d
            best_i = i
    if best_d < mdict.tau:
        entry.paths[best_i].count += 1
    else:
        entry.paths.append(DictPath(motion=motion, count=1))
    return mdict


def dict_lookup(mdict: MotionDictionary, key: DictKey) -> KeyPoses | None:
    """Highest-probability path for a key (ties pick the lowest index)."""
    entry = mdict.entries.get(key)
    if entry is None or not entry.paths:
        return None
    best = max(range(len(entry.paths)), key=lambda i: (entry.paths[i].count, -i))
    return entry.paths[best].motion


def synthesize(
    keyposes: KeyPoses,
    codes: np.ndarray | None,
    mdict: MotionDictionary | None,
    mode: str,
    rate: float,
    columns: Sequence[str] = (),
) -> KeyPoses:
    """Trajectory through the key poses, preferring dictionary paths, sampled
    at ``rate`` from the first key-pose time to the last.

    ``codes`` holds one row of symbol codes per key pose over ``columns``
    (a decode's ``codes`` and ``columns``). For each adjacent key-pose pair,
    a stored path for the transition between their rows
    (:meth:`DictKey.of`) is time-warped onto the interval and shifted by the
    linear ramp of its endpoint residuals; transitions without a stored
    path use plain interpolation. The result passes through every key pose.
    """
    finite(rate, "trajectory rate", 0.0, strict=True)
    if len(keyposes) < 2:
        raise InsufficientData("need at least 2 key poses")
    times, joints, angles = keyposes.times, keyposes.joints, keyposes.samples
    if codes is not None and np.shape(codes) != (len(keyposes), len(columns)):
        raise ShapeError("codes must have one row per key pose and one column per state column")

    grid = uniform_grid(float(times[0]), float(times[-1]), rate)
    idx, tau, rows = _rows_at(times, angles, mode, grid)
    if mdict is not None and codes is not None:
        # idx is sorted, so segment k's samples are rows[bounds[k]:bounds[k + 1]]
        bounds = np.searchsorted(idx, np.arange(len(times)))
        code_rows = np.asarray(codes).tolist()
        for k in range(len(keyposes) - 1):
            path = dict_lookup(mdict, DictKey.of(columns, code_rows[k], code_rows[k + 1]))
            if path is None:
                continue
            if path.joints != joints:
                raise ShapeError("dictionary path joints do not match key poses")
            seg = slice(bounds[k], bounds[k + 1])
            tk = tau[seg]
            S = path.samples
            base = np.column_stack([np.interp(tk, path.times, S[:, c]) for c in range(len(joints))])
            res0 = angles[k] - S[0]
            res1 = angles[k + 1] - S[-1]
            rows[seg] = base + (1.0 - tk)[:, None] * res0 + tk[:, None] * res1
    return KeyPoses(grid, joints, rows)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# |v|·1e6 must stay below 2**52, where every half-integer is a double; larger
# and non-finite values are formatted by the per-row `%` path
_CSV_EXACT_LIMIT = 2.0**52 / 1e6
# rows formatted per array pass: bounds the word buffer and the temporaries
_CSV_BLOCK_ROWS = 4096


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


def _micros(block: np.ndarray) -> np.ndarray:
    """rint(|v|·1e6) as int64: the integer that ``'%.6f' % v`` writes, for a
    block with every |v| < _CSV_EXACT_LIMIT.

    rint(|v|·1e6) is the correctly rounded (half-even) integer of the exact
    product unless the rounded product is a half-integer; only there may the
    exact product lie on either side, so those values take their integer
    from ``%``.
    """
    y = np.abs(block)
    y *= 1e6
    r = np.rint(y)
    y -= r  # in place: |y - r| is |r - y|
    tie = np.abs(y, out=y) == 0.5
    if tie.any():
        r[tie] = [float(("%.6f" % m).replace(".", "")) for m in np.abs(block[tie]).tolist()]
    return r.astype(np.int64)


def _csv_words(block: np.ndarray, buffer: bytearray) -> None:
    """Fill ``buffer`` with the words of a block's rows, resizing it if the
    block needs another size: per value, its integer part's 3-digit groups,
    then '.ddd', then 'ddd,' (or 'ddd\\n' in a row's last field). The sign
    comes from the sign bit, so -0.0 and negatives that round to zero print
    ``-0.000000``."""
    whole, frac = np.divmod(_micros(block), 1000000)
    n_groups = -(-len(str(int(whole.max()))) // 3)
    size = block.size * (n_groups + 2) * 4
    if len(buffer) != size:
        buffer.clear()  # emptied first: a slice assignment briefly holds three copies
        buffer.extend(bytes(size))
    words = np.frombuffer(buffer, np.uint32).reshape(*block.shape, n_groups + 2)
    sign = np.signbit(block) * np.int16(1000)  # the offset of the '-' words
    rest = whole
    for slot in range(n_groups - 1, -1, -1):  # last group first
        group = rest
        if slot:
            rest, group = np.divmod(rest, 1000)
        unit = 1000 ** (n_groups - 1 - slot)  # the place value of the group's last digit
        index = sign + group
        if slot < n_groups - 1:  # a group above the leading one is all pad
            index[whole < unit] = _NUL_WORD
        if slot:  # a group below the leading one is zero-padded
            np.copyto(index, _INNER + group, where=whole >= 1000 * unit)
        np.take(_CSV_INT, index, out=words[..., slot])
    del whole, rest, group, index  # freed before the decimals' temporaries
    thousandths, frac = np.divmod(frac, 1000)
    np.take(_CSV_POINT, thousandths, out=words[..., -2])
    frac[:, -1] += 1000
    np.take(_CSV_END, frac, out=words[..., -1])


def trajectory_to_csv(traj: KeyPoses, fh) -> None:
    """Write the header ``t,<joint>,...`` and one ``%.6f`` row per sample to
    ``fh``, a file opened for binary writing, as UTF-8 bytes.

    Rows are formatted in blocks of 4096 by an array formatter that writes
    the same bytes as ``%``. It rounds each |v|·1e6 to an integer and splits
    that into 3-digit groups: the integer part's groups, then two groups of
    decimals. Each group is an index into a small table of uint32 words,
    four characters each, which ``np.take`` gathers into a buffer that
    the blocks reuse: the sign and the leading group without its leading
    zeros, every later integer group zero-padded, '.' with the first three
    decimals, and the last three decimals with ',' or '\\n'. Bytes that a
    word does not need are NUL, and one ``translate`` drops them. A block
    holding a non-finite value or a magnitude of 2**52 / 1e6 (about 4.5e9)
    or more is formatted by ``%`` row by row. Each block's bytes are
    written as soon as they are formatted, so memory stays one block's
    worth whatever the row count.
    """
    fh.write(("t," + ",".join(traj.joints) + "\n").encode("utf-8"))
    row = ",".join(["%.6f"] * (len(traj.joints) + 1)) + "\n"
    buffer = bytearray()
    block_rows = np.empty((min(len(traj.times), _CSV_BLOCK_ROWS), len(traj.joints) + 1))  # refilled per block
    for a in range(0, len(traj.times), _CSV_BLOCK_ROWS):
        block = block_rows[:len(traj.times) - a]
        block[:, 0] = traj.times[a:a + _CSV_BLOCK_ROWS]
        block[:, 1:] = traj.samples[a:a + _CSV_BLOCK_ROWS]
        if np.all(np.abs(block) < _CSV_EXACT_LIMIT):  # False for NaN and inf
            _csv_words(block, buffer)
            fh.write(buffer.translate(None, b"\0"))
        else:
            fh.write("".join(row % tuple(r) for r in block.tolist()).encode("ascii"))


def serialize_dictionary(mdict: MotionDictionary) -> str:
    """Deterministic JSON: sorted keys, full-precision floats."""
    lines = ["{"]
    lines.append(f'  "samples_per_path": {PATH_SAMPLES},')
    lines.append(f'  "tau": {mdict.tau!r},')
    lines.append('  "entries": {')
    keys = sorted(mdict.entries, key=str)
    for ki, key in enumerate(keys):
        entry = mdict.entries[key]
        lines.append(f'    {json.dumps(str(key))}: [')
        for pi, p in enumerate(entry.paths):
            joints = json.dumps(list(p.motion.joints))
            rows = ", ".join("[" + ", ".join(map(repr, row)) + "]" for row in p.motion.samples.tolist())
            comma = "," if pi + 1 < len(entry.paths) else ""
            lines.append(f'      {{"count": {p.count}, "joints": {joints}, "samples": [{rows}]}}{comma}')
        lines.append("    ]" + ("," if ki + 1 < len(keys) else ""))
    lines.append("  }")
    lines.append("}")
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

    Malformed JSON and wrong types raise ParseError; a ``samples_per_path``
    other than PATH_SAMPLES, a key with no paths, path joints out of sorted
    order or repeated, a path that is not PATH_SAMPLES rows of one angle per
    joint, a non-finite angle, a count below 1 and a tau that is not a
    finite number > 0 raise ValidationError.
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
    for key_text, paths in entries.items():
        where = f"$.entries[{json.dumps(key_text)}]"
        try:
            key = DictKey.parse(key_text)
        except ValueError as exc:
            raise ParseError(where, f"not a (from-state)->(to-state) key: {exc}") from None
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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dictionary(fh.read())
