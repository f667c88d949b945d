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
ships feature extraction, training and classification to workers as
procedural demands ("fe.window_energy", "cls.train", "cls.classify").  Training
and classifying alike, the generator deposits every feature demand before
it awaits any, so features are extracted in parallel.  A model version is an
immutable resource named by the hex sha256 of its bytes, and training step
t is a demand like any other: ``cls.train(prev, subject_id, fv)`` loads
version ``prev`` ("" is the empty model), folds in one feature vector,
puts the new version under its digest and returns that digest.  A step is
a function of its arguments alone, so a redelivered or repeated step
yields the same version.  After the last step the generator copies the
final version under the model id; of two trainings of one model id at
once, the last copy wins, and it is a whole model.  Classifying reads that
copy once to learn its digest and deposits ``cls.classify(digest, fv)``
for every sample: a signature names the model's content, not its id, so
the same model under two ids shares warehouse entries.  A worker loads a
version by digest through a small cache, which a digest's immutable bytes
keep coherent; a version the worker puts goes into that cache too, so the
next training step does not fetch it back.  A version's bytes are a TSET,
whose format ``wire`` keeps so that a store checks models without this module.
"""
from __future__ import annotations

import hashlib
import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, Tuple

from .errors import EductionError
from .model import DemandKind, DemandSignature, Value, as_float_array
from .store import NotFound, gather
from .wire import TrainingSet, decode_training_set, encode_training_set
from .worker import ProcedureRegistry

PROGRAM_ID = "pipeline"
FE_PROC = "fe.window_energy"
TRAIN_PROC = "cls.train"
CLASSIFY_PROC = "cls.classify"

DEFAULT_WINDOWS = 8
DEFAULT_MODEL_ID = "speakers"

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
    return TrainingSet(windows=len(fv), subjects=subjects)


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


def _call(store, name: str, args: tuple, timeout_ms: float) -> Value:
    return gather(store, [_proc_sig(name, args)], timeout_ms)[0]


def run_pipeline_distributed(
    store,
    samples: Sequence[Tuple[Optional[int], Sample]],
    mode: str,
    model_id: str = DEFAULT_MODEL_ID,
    windows: int = DEFAULT_WINDOWS,
    timeout_ms: float = 60000,
) -> list:
    """Same contract as ``run_pipeline_local`` without ``ts``, but over the demand queue.

    Feature extraction, training and classification execute wherever a
    worker claims them; this generator only loads, preprocesses, deposits
    and collects.  Training builds a model from ``samples`` alone and puts
    it under ``model_id``, replacing any model stored there.
    """
    if mode not in (TRAIN_MODE, CLASSIFY_MODE):
        raise ValueError(f"unknown mode {mode!r}")
    fe_sigs = [_proc_sig(FE_PROC, (as_float_array(preprocess(s).amplitudes), windows)) for _, s in samples]
    fvs = gather(store, fe_sigs, timeout_ms)

    if mode == TRAIN_MODE:
        version = ""
        for (label, _), fv in zip(samples, fvs):
            version = _call(store, TRAIN_PROC, (version, int(label), fv), timeout_ms)
        store.put_resource(model_id, _version_bytes(store, version))
        return []

    try:
        digest = hashlib.sha256(store.get_resource(model_id)).hexdigest()
    except NotFound:
        raise EmptyTrainingSet(f"no model {model_id!r} in the store") from None
    flats = gather(store, [_proc_sig(CLASSIFY_PROC, (digest, fv)) for fv in fvs], timeout_ms)
    return [tuple((int(flat[i]), flat[i + 1]) for i in range(0, len(flat), 2)) for flat in flats]


# --- worker-side procedures ------------------------------------------------------


def _version_bytes(store, digest: str) -> bytes:
    """The bytes of the model version named ``digest``; "" names the empty model."""
    if not digest:
        return encode_training_set(TrainingSet())
    try:
        data = store.get_resource(digest)
    except NotFound:
        raise ValueError(f"no model version {digest}") from None
    if hashlib.sha256(data).hexdigest() != digest:
        raise ValueError(f"model version {digest} does not hash to its name")
    return data


def build_pipeline_registry(store) -> ProcedureRegistry:
    """Pipeline procedures bound to the store that keeps the models."""
    reg = ProcedureRegistry()

    # The last few versions loaded or put, by digest.  A digest names
    # immutable bytes, so a cached version is never stale; callers share the
    # TrainingSet, and train and classify only read it.
    versions: OrderedDict[str, TrainingSet] = OrderedDict()
    lock = threading.Lock()

    def remember(digest: str, data: bytes) -> TrainingSet:
        ts = decode_training_set(data)
        with lock:
            versions[digest] = ts
            if len(versions) > 8:
                versions.popitem(last=False)
        return ts

    def load(digest: str) -> TrainingSet:
        with lock:
            ts = versions.get(digest)
            if ts is not None:
                versions.move_to_end(digest)
                return ts
        return remember(digest, _version_bytes(store, digest))

    def fe(amplitudes, windows):
        if not isinstance(amplitudes, tuple):
            raise ValueError("amplitudes must be a FloatArray")
        if isinstance(windows, bool) or not isinstance(windows, int):
            raise ValueError("window count must be an Int")
        return window_energies(amplitudes, windows)

    def cls_train(prev, subject_id, fv):
        if not isinstance(prev, str) or not isinstance(fv, tuple):
            raise ValueError("cls.train takes (Str, Int, FloatArray)")
        if isinstance(subject_id, bool) or not isinstance(subject_id, int):
            raise ValueError("subject id must be an Int")
        data = encode_training_set(train(load(prev), fv, subject_id))
        digest = hashlib.sha256(data).hexdigest()
        store.put_resource(digest, data)
        # the next step starts from this version: cache what a fetch would give
        remember(digest, data)
        return digest

    def cls_classify(digest, fv):
        if not isinstance(digest, str) or not isinstance(fv, tuple):
            raise ValueError("cls.classify takes (Str, FloatArray)")
        flat = []
        for subject_id, dist in classify(load(digest), fv):
            flat.append(float(subject_id))
            flat.append(dist)
        return tuple(flat)

    reg.register(FE_PROC, 2, fe)
    reg.register(TRAIN_PROC, 3, cls_train)
    reg.register(CLASSIFY_PROC, 2, cls_classify)
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
