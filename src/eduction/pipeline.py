"""Recognition pipeline: load, normalize, window energies, nearest mean.

The four stages are plain functions so the local and the distributed mode
share every line of arithmetic:

    load_sample   .amp file (one amplitude per line) -> Sample
    preprocess    divide by the largest |amplitude|
    extract_features
                  W windowed mean-square energies (last window zero-padded)
    train / classify
                  running per-subject mean vectors; Euclidean distance,
                  ties broken by lower subject id

Distributed mode keeps loading and preprocessing on the generator side and
ships feature extraction and classification to workers as procedural
demands ("fe.window_energy", "cls.train", "cls.classify").  The model lives
in the store's resource map under its model id.  Train demands are issued
one at a time, so the store's exclusive claim serializes every model
mutation; each train records a digest of its arguments in the model so a
redelivered train demand is applied exactly once.  Classify demands carry a
digest of the model bytes, which keeps their signatures referentially
transparent: a different model means a different demand.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence, Tuple

from .errors import EductionError
from . import wire
from .model import DemandKind, DemandSignature, Value, as_float_array, pending_demand
from .store import DepositStatus, NotFound
from .worker import ProcedureRegistry

PROGRAM_ID = "pipeline"
FE_PROC = "fe.window_energy"
TRAIN_PROC = "cls.train"
CLASSIFY_PROC = "cls.classify"

DEFAULT_WINDOWS = 8
DEFAULT_MODEL_ID = "speakers"
TSET_MAGIC = b"TSET\x01"

TRAIN_MODE = "train"
CLASSIFY_MODE = "classify"

# ResultSet: ((subject_id, distance), ...) sorted by distance, then subject id
ResultSet = Tuple[Tuple[int, float], ...]


class MalformedAmplitude(EductionError):
    def __init__(self, path: str, line: int, text: str):
        super().__init__(f"{path}:{line}: not an amplitude: {text!r}")
        self.line = line


class EmptySample(EductionError):
    pass


class DimensionMismatch(EductionError):
    pass


class EmptyTrainingSet(EductionError):
    pass


@dataclass(frozen=True)
class Sample:
    id: str
    amplitudes: Tuple[float, ...]
    sample_rate: int = 8000  # informational only


def load_sample(path: str) -> Sample:
    """Read a line-oriented amplitude file; '#' starts a comment."""
    amplitudes = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                x = float(text)
            except ValueError:
                raise MalformedAmplitude(path, lineno, text) from None
            if not math.isfinite(x):
                raise MalformedAmplitude(path, lineno, text)
            amplitudes.append(x)
    if not amplitudes:
        raise EmptySample(path)
    return Sample(id=os.path.splitext(os.path.basename(path))[0], amplitudes=tuple(amplitudes))


# --- deterministic synthetic corpus ------------------------------------------
#
# Noise comes from a SplitMix-style 64-bit generator so every platform
# produces bit-identical corpora.  Constants (Steele et al.'s splitmix64):
#
#   gamma = 0x9E3779B97F4A7C15        (state increment)
#   mix1  = 0xBF58476D1CE4E5B9        (first multiply, xor-shift 30)
#   mix2  = 0x94D049BB133111EB        (second multiply, xor-shift 27)
#   final xor-shift 31; uniform [0,1) = z / 2**64
#
# The stream for a sample starts at state (seed * gamma + subjectId) mod 2**64,
# so two subjects generated with the same seed do not share a noise stream.

_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB
_U64 = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _U64

    def next_u64(self) -> int:
        self.state = (self.state + _SM_GAMMA) & _U64
        z = self.state
        z = ((z ^ (z >> 30)) * _SM_MIX1) & _U64
        z = ((z ^ (z >> 27)) * _SM_MIX2) & _U64
        return z ^ (z >> 31)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * (self.next_u64() / 2.0**64)


def gen_sample(subject_id: int, n: int = 512, seed: Optional[int] = None) -> Sample:
    """Synthetic voiced tone for a subject: f = 2 + subject_id cycles,
    a 3f harmonic at quarter amplitude, plus uniform noise in [-0.05, 0.05]
    when a seed is given."""
    if n <= 0:
        raise EmptySample(f"n={n}")
    f = 2 + subject_id
    rng = SplitMix64(seed * _SM_GAMMA + subject_id) if seed is not None else None
    amps = []
    for i in range(n):
        x = math.sin(2 * math.pi * f * i / n) + 0.25 * math.sin(2 * math.pi * 3 * f * i / n)
        if rng is not None:
            x += rng.uniform(-0.05, 0.05)
        amps.append(x)
    return Sample(id=f"s{subject_id}-seed{seed}-n{n}", amplitudes=tuple(amps))


# --- stages -------------------------------------------------------------------


def preprocess(s: Sample) -> Sample:
    """Normalize amplitudes by the largest magnitude; silence stays silence."""
    peak = max((abs(x) for x in s.amplitudes), default=0.0)
    if not s.amplitudes:
        raise EmptySample(s.id)
    if peak == 0.0:
        return s
    return replace(s, amplitudes=tuple(x / peak for x in s.amplitudes))


def window_energies(amplitudes: Sequence[float], windows: int) -> Tuple[float, ...]:
    """Mean-square energy per window; the last window is zero-padded."""
    n = len(amplitudes)
    if n == 0:
        raise EmptySample("no amplitudes")
    if windows <= 0:
        raise DimensionMismatch(f"window count must be positive, got {windows}")
    wlen = -(-n // windows)  # ceil
    padded = tuple(amplitudes) + (0.0,) * (wlen * windows - n)
    return tuple(
        sum(x * x for x in padded[k * wlen : (k + 1) * wlen]) / wlen for k in range(windows)
    )


def extract_features(s: Sample, windows: int = DEFAULT_WINDOWS) -> Tuple[float, ...]:
    return window_energies(s.amplitudes, windows)


@dataclass
class TrainingSet:
    """Per-subject running means plus digests of already-applied trainings."""

    windows: Optional[int] = None
    subjects: dict = field(default_factory=dict)  # subject_id -> (mean tuple, count)
    applied: frozenset = frozenset()  # digests of train demands already folded in


def train(ts: TrainingSet, fv: Sequence[float], subject_id: int) -> TrainingSet:
    fv = tuple(float(x) for x in fv)
    if ts.windows is not None and len(fv) != ts.windows:
        raise DimensionMismatch(f"feature length {len(fv)} != model width {ts.windows}")
    mean, count = ts.subjects.get(subject_id, ((), 0))
    if count == 0:
        new_mean, new_count = fv, 1
    else:
        new_count = count + 1
        new_mean = tuple(m + (x - m) / new_count for m, x in zip(mean, fv))
    subjects = dict(ts.subjects)
    subjects[int(subject_id)] = (new_mean, new_count)
    return TrainingSet(windows=len(fv), subjects=subjects, applied=ts.applied)


def classify(ts: TrainingSet, fv: Sequence[float]) -> ResultSet:
    if not ts.subjects:
        raise EmptyTrainingSet("model has no trained subjects")
    fv = tuple(float(x) for x in fv)
    if len(fv) != ts.windows:
        raise DimensionMismatch(f"feature length {len(fv)} != model width {ts.windows}")
    rows = []
    for subject_id, (mean, _count) in ts.subjects.items():
        dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(fv, mean)))
        rows.append((dist, subject_id))
    rows.sort()
    return tuple((sid, dist) for dist, sid in rows)


def top1_accuracy(results: Sequence[ResultSet], labels: Sequence[int]) -> Tuple[int, int]:
    hits = sum(1 for rs, label in zip(results, labels) if rs and rs[0][0] == label)
    return hits, len(labels)


# --- model serialization --------------------------------------------------------


def encode_training_set(ts: TrainingSet) -> bytes:
    out = [TSET_MAGIC, (ts.windows or 0).to_bytes(4, "big")]
    out.append(len(ts.subjects).to_bytes(4, "big"))
    for subject_id in sorted(ts.subjects):
        mean, count = ts.subjects[subject_id]
        out.append(int(subject_id).to_bytes(8, "big", signed=True))
        out.append(int(count).to_bytes(8, "big"))
        out.append(wire.encode_value(as_float_array(mean)))
    digests = sorted(ts.applied)
    out.append(len(digests).to_bytes(4, "big"))
    out.extend(digests)
    return b"".join(out)


def decode_training_set(data: bytes) -> TrainingSet:
    r = wire.Reader(data)
    if r.take(5) != TSET_MAGIC:
        raise wire.MalformedEncoding("bad training-set magic")
    windows = r.u32() or None
    subjects = {}
    for _ in range(r.u32()):
        subject_id = int.from_bytes(r.take(8), "big", signed=True)
        count = int.from_bytes(r.take(8), "big")
        mean = wire.read_value(r)
        if not isinstance(mean, tuple):
            raise wire.MalformedEncoding("subject mean must be a FloatArray")
        subjects[subject_id] = (mean, count)
    applied = frozenset(bytes(r.take(32)) for _ in range(r.u32()))
    r.expect_done()
    return TrainingSet(windows=windows, subjects=subjects, applied=applied)


# --- local mode --------------------------------------------------------------


def run_pipeline_local(
    samples: Sequence[Tuple[Optional[int], Sample]],
    mode: str,
    ts: Optional[TrainingSet] = None,
    windows: int = DEFAULT_WINDOWS,
) -> Tuple[TrainingSet, list]:
    """Run the four stages in sequence; returns (model, ResultSets).

    ``samples`` pairs each sample with its subject id (ignored when
    classifying).  Training returns no ResultSets.
    """
    ts = ts if ts is not None else TrainingSet()
    results: list[ResultSet] = []
    for label, sample in samples:
        fv = extract_features(preprocess(sample), windows)
        if mode == TRAIN_MODE:
            ts = train(ts, fv, label)
        elif mode == CLASSIFY_MODE:
            results.append(classify(ts, fv))
        else:
            raise ValueError(f"unknown mode {mode!r}")
    return ts, results


# --- distributed mode -----------------------------------------------------------


def _proc_sig(name: str, args: tuple) -> DemandSignature:
    return DemandSignature(PROGRAM_ID, name, kind=DemandKind.PROCEDURAL, args=args)


def _args_digest(args: tuple) -> bytes:
    return hashlib.sha256(b"".join(wire.encode_value(a) for a in args)).digest()


def _submit(store, sig: DemandSignature):
    return store.deposit(pending_demand(sig))


def _collect(store, sig: DemandSignature, out, timeout_ms: float) -> Value:
    if out.status is DepositStatus.ALREADY_COMPUTED:
        return out.value
    return store.await_result(sig, timeout_ms)


def _call(store, name: str, args: tuple, timeout_ms: float) -> Value:
    sig = _proc_sig(name, args)
    return _collect(store, sig, _submit(store, sig), timeout_ms)


def run_pipeline_distributed(
    store,
    samples: Sequence[Tuple[Optional[int], Sample]],
    mode: str,
    model_id: str = DEFAULT_MODEL_ID,
    windows: int = DEFAULT_WINDOWS,
    timeout_ms: float = 60000,
) -> list:
    """Same contract as ``run_pipeline_local`` but over the demand queue.

    Feature extraction and classification execute wherever a worker claims
    them; this generator only loads, preprocesses, deposits and collects.
    """
    if mode == TRAIN_MODE:
        for label, sample in samples:
            s = preprocess(sample)
            fv = _call(store, FE_PROC, (as_float_array(s.amplitudes), windows), timeout_ms)
            # one train in flight at a time: the claim serializes model updates
            _call(store, TRAIN_PROC, (model_id, int(label), fv), timeout_ms)
        return []
    if mode != CLASSIFY_MODE:
        raise ValueError(f"unknown mode {mode!r}")

    fe_sigs = [
        _proc_sig(FE_PROC, (as_float_array(preprocess(sample).amplitudes), windows))
        for _, sample in samples
    ]
    fe_outs = [_submit(store, sig) for sig in fe_sigs]
    fvs = [_collect(store, sig, out, timeout_ms) for sig, out in zip(fe_sigs, fe_outs)]

    try:
        model_digest = hashlib.sha256(store.get_resource(model_id)).hexdigest()
    except NotFound:
        raise EmptyTrainingSet(f"no model {model_id!r} in the store") from None
    cls_sigs = [_proc_sig(CLASSIFY_PROC, (model_id, model_digest, fv)) for fv in fvs]
    cls_outs = [_submit(store, sig) for sig in cls_sigs]
    results = []
    for sig, out in zip(cls_sigs, cls_outs):
        flat = _collect(store, sig, out, timeout_ms)
        results.append(tuple((int(flat[i]), flat[i + 1]) for i in range(0, len(flat), 2)))
    return results


# --- worker-side procedures ------------------------------------------------------


def _load_model(store, model_id: str) -> TrainingSet:
    try:
        return decode_training_set(store.get_resource(model_id))
    except NotFound:
        return TrainingSet()


def build_pipeline_registry(store) -> ProcedureRegistry:
    """Pipeline procedures bound to the store that keeps the models."""
    reg = ProcedureRegistry()

    def fe(amplitudes, windows):
        if not isinstance(amplitudes, tuple):
            raise ValueError("amplitudes must be a FloatArray")
        if isinstance(windows, bool) or not isinstance(windows, int):
            raise ValueError("window count must be an Int")
        return window_energies(amplitudes, windows)

    def cls_train(model_id, subject_id, fv):
        if not isinstance(model_id, str) or not isinstance(fv, tuple):
            raise ValueError("cls.train takes (Str, Int, FloatArray)")
        if isinstance(subject_id, bool) or not isinstance(subject_id, int):
            raise ValueError("subject id must be an Int")
        digest = _args_digest((model_id, subject_id, fv))
        ts = _load_model(store, model_id)
        if digest in ts.applied:
            return "ok"  # redelivered train demand: already folded in
        ts = train(ts, fv, subject_id)
        ts = TrainingSet(ts.windows, ts.subjects, ts.applied | {digest})
        store.put_resource(model_id, encode_training_set(ts))
        return "ok"

    def cls_classify(model_id, model_digest, fv):
        if not isinstance(model_id, str) or not isinstance(model_digest, str) or not isinstance(fv, tuple):
            raise ValueError("cls.classify takes (Str, Str, FloatArray)")
        try:
            raw = store.get_resource(model_id)
        except NotFound:
            raise EmptyTrainingSet(f"no model {model_id!r}") from None
        if hashlib.sha256(raw).hexdigest() != model_digest:
            raise ValueError(f"model {model_id!r} changed since the demand was issued")
        rs = classify(decode_training_set(raw), fv)
        flat = []
        for subject_id, dist in rs:
            flat.append(float(subject_id))
            flat.append(dist)
        return tuple(flat)

    reg.register(FE_PROC, 2, fe)
    reg.register(TRAIN_PROC, 3, cls_train)
    reg.register(CLASSIFY_PROC, 3, cls_classify)
    return reg


# --- corpus helper ----------------------------------------------------------------


def default_corpus(
    subjects: int = 4,
    train_seeds: Iterable[int] = range(1, 6),
    test_seeds: Iterable[int] = range(6, 11),
    n: int = 512,
):
    """Labeled (subject, Sample) lists: one tone per subject per seed."""
    train_set = [(s, gen_sample(s, n, seed)) for s in range(1, subjects + 1) for seed in train_seeds]
    test_set = [(s, gen_sample(s, n, seed)) for s in range(1, subjects + 1) for seed in test_seeds]
    return train_set, test_set
