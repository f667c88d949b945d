"""Recognition pipeline: loading, features, training, classification."""
import hashlib
import math
import random
import sys
import threading

import numpy as np
import pytest

from eduction import pipeline as P
from eduction import wire
from eduction.model import pending_demand
from eduction.store import DemandStore, ProcedureFault
from eduction.transport import connect_store, serve_store
from eduction.worker import Worker, WorkerConfig


class TestLoadSample:
    def write(self, tmp_path, text):
        p = tmp_path / "s.amp"
        p.write_text(text)
        return str(p)

    def test_values_and_id(self, tmp_path):
        path = self.write(tmp_path, "0.5\n-0.25\n1.0\n")
        s = P.load_sample(path)
        assert s.amplitudes == (0.5, -0.25, 1.0)
        assert s.id == "s"

    def test_comments_and_blanks(self, tmp_path):
        path = self.write(tmp_path, "# header\n0.5\n\n# mid\n1.0\n")
        assert P.load_sample(path).amplitudes == (0.5, 1.0)

    def test_malformed_line_number(self, tmp_path):
        path = self.write(tmp_path, "0.5\nnot-a-number\n")
        with pytest.raises(P.MalformedAmplitude) as e:
            P.load_sample(path)
        assert e.value.line == 2

    def test_non_finite_rejected(self, tmp_path):
        path = self.write(tmp_path, "0.5\ninf\n")
        with pytest.raises(P.MalformedAmplitude) as e:
            P.load_sample(path)
        assert e.value.line == 2

    def test_empty_sample(self, tmp_path):
        path = self.write(tmp_path, "# only comments\n")
        with pytest.raises(P.EmptySample):
            P.load_sample(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            P.load_sample(str(tmp_path / "absent.amp"))


class TestGenSample:
    def test_deterministic(self):
        a = P.gen_sample(3, 256, seed=42)
        b = P.gen_sample(3, 256, seed=42)
        assert a.amplitudes == b.amplitudes
        assert a.id == "s3-seed42-n256"

    def test_seed_changes_noise(self):
        a = P.gen_sample(3, 256, seed=1)
        b = P.gen_sample(3, 256, seed=2)
        assert a.amplitudes != b.amplitudes

    def test_noise_free_is_pure_tone_sum(self):
        n, sid = 128, 2
        f = 2 + sid
        got = P.gen_sample(sid, n, seed=None).amplitudes
        for i in (0, 1, 7, 63, 127):
            want = math.sin(2 * math.pi * f * i / n) + 0.25 * math.sin(
                2 * math.pi * 3 * f * i / n
            )
            assert got[i] == pytest.approx(want, abs=1e-12)

    def test_noise_bounded(self):
        clean = P.gen_sample(1, 512, seed=None).amplitudes
        noisy = P.gen_sample(1, 512, seed=7).amplitudes
        diffs = [abs(a - b) for a, b in zip(noisy, clean)]
        assert max(diffs) <= 0.05 and max(diffs) > 0.0

    def test_subjects_have_distinct_fundamentals(self):
        # DFT argmax of the clean tone must equal 2 + subject_id
        n = 512
        for sid in range(1, 5):
            amps = P.gen_sample(sid, n, seed=None).amplitudes
            spectrum = np.abs(np.fft.rfft(amps))
            assert int(np.argmax(spectrum)) == 2 + sid

    def test_splitmix64_reference_values(self):
        # first outputs for state 0, from the published mixing constants
        rng = P.SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    def test_uniform_range(self):
        rng = P.SplitMix64(123)
        vals = [rng.uniform(-0.05, 0.05) for _ in range(1000)]
        assert all(-0.05 <= v < 0.05 for v in vals)
        assert min(vals) < -0.04 and max(vals) > 0.04


class TestPreprocess:
    def test_peak_normalization(self):
        s = P.Sample("x", (0.0, 2.0, -4.0))
        assert P.preprocess(s).amplitudes == (0.0, 0.5, -1.0)

    def test_all_zero_unchanged(self):
        s = P.Sample("x", (0.0, 0.0))
        assert P.preprocess(s).amplitudes == (0.0, 0.0)

    def test_already_normalized(self):
        s = P.Sample("x", (1.0, -0.5))
        assert P.preprocess(s).amplitudes == (1.0, -0.5)


class TestFeatures:
    def test_uniform_signal(self):
        assert P.window_energies([1.0] * 8, 2) == (1.0, 1.0)

    def test_impulse(self):
        assert P.window_energies([1.0, 0.0, 0.0, 0.0], 2) == (0.5, 0.0)

    def test_last_window_zero_padded(self):
        # n=5, W=2: window length ceil(5/2)=3, second window [x3,x4,0]
        got = P.window_energies([1.0, 1.0, 1.0, 1.0, 1.0], 2)
        assert got == (1.0, pytest.approx(2.0 / 3.0))

    def test_window_count(self):
        assert len(P.window_energies(list(range(100)), 8)) == 8

    def test_preprocess_then_extract(self):
        # normalization is its own stage; extraction sees what it is given
        s = P.Sample("x", (2.0, 2.0, 2.0, 2.0))
        assert P.extract_features(s, windows=2) == (4.0, 4.0)
        assert P.extract_features(P.preprocess(s), windows=2) == (1.0, 1.0)

    def test_numpy_oracle_agreement(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(8, 200)
            w = rng.choice([2, 4, 8])
            amps = [rng.uniform(-1, 1) for _ in range(n)]
            got = P.window_energies(amps, w)
            wlen = -(-n // w)
            padded = np.zeros(wlen * w)
            padded[:n] = amps
            want = (padded.reshape(w, wlen) ** 2).mean(axis=1)
            assert got == pytest.approx(list(want), rel=1e-12)


class TestTraining:
    def test_first_vector_is_mean(self):
        ts = P.train(P.TrainingSet(windows=2), (1.0, 3.0), 7)
        assert ts.subjects[7] == ((1.0, 3.0), 1)

    def test_running_mean(self):
        ts = P.TrainingSet(windows=2)
        ts = P.train(ts, (1.0, 3.0), 7)
        ts = P.train(ts, (3.0, 5.0), 7)
        mean, count = ts.subjects[7]
        assert mean == (2.0, 4.0) and count == 2

    def test_subjects_isolated(self):
        ts = P.TrainingSet(windows=1)
        ts = P.train(ts, (1.0,), 1)
        ts = P.train(ts, (9.0,), 2)
        assert ts.subjects[1] == ((1.0,), 1) and ts.subjects[2] == ((9.0,), 1)

    def test_dimension_mismatch(self):
        ts = P.train(P.TrainingSet(), tuple(float(i) for i in range(8)), 1)
        with pytest.raises(P.DimensionMismatch):
            P.train(ts, (1.0, 2.0), 1)

    def test_train_is_pure(self):
        ts0 = P.TrainingSet(windows=1)
        ts1 = P.train(ts0, (1.0,), 1)
        assert ts0.subjects == {} and ts1.subjects != {}


class TestClassify:
    def build(self):
        ts = P.TrainingSet(windows=2)
        ts = P.train(ts, (0.0, 0.0), 1)
        ts = P.train(ts, (1.0, 1.0), 2)
        ts = P.train(ts, (4.0, 4.0), 3)
        return ts

    def test_sorted_by_distance(self):
        rs = P.classify(self.build(), (1.1, 1.1))
        assert [sid for sid, _ in rs] == [2, 1, 3]
        dists = [d for _, d in rs]
        assert dists == sorted(dists)

    def test_distances_are_euclidean(self):
        rs = P.classify(self.build(), (3.0, 4.0))
        by_sid = dict(rs)
        assert by_sid[1] == pytest.approx(5.0)
        assert by_sid[2] == pytest.approx(math.hypot(2.0, 3.0))

    def test_tie_breaks_to_lower_subject(self):
        ts = P.TrainingSet(windows=1)
        ts = P.train(ts, (0.0,), 5)
        ts = P.train(ts, (2.0,), 3)
        rs = P.classify(ts, (1.0,))
        assert [sid for sid, _ in rs] == [3, 5]

    def test_empty_training_set(self):
        with pytest.raises(P.EmptyTrainingSet):
            P.classify(P.TrainingSet(windows=2), (1.0, 1.0))

    def test_dimension_mismatch(self):
        with pytest.raises(P.DimensionMismatch):
            P.classify(self.build(), (1.0, 2.0, 3.0))

    def test_brute_force_property(self):
        rng = random.Random(11)
        for _ in range(25):
            ts = P.TrainingSet(windows=3)
            means = {}
            for sid in range(1, rng.randint(2, 6)):
                fv = tuple(rng.uniform(-2, 2) for _ in range(3))
                ts = P.train(ts, fv, sid)
                means[sid] = fv
            probe = tuple(rng.uniform(-2, 2) for _ in range(3))
            rs = P.classify(ts, probe)
            want = sorted(
                (math.dist(m, probe), sid) for sid, m in means.items()
            )
            assert [sid for sid, _ in rs] == [sid for _, sid in want]


class TestTrainingSetCodec:
    def test_roundtrip(self):
        ts = P.TrainingSet(windows=2)
        ts = P.train(ts, (1.0, 2.0), 1)
        ts = P.train(ts, (3.0, 4.0), 2)
        back = P.decode_training_set(P.encode_training_set(ts))
        assert back == ts

    def test_magic_checked(self):
        with pytest.raises(Exception):
            P.decode_training_set(b"XXXX\x01rest")
        # a model from before versions were named by digest carries an applied-digest set
        old = b"TSET\x01" + bytes(8) + bytes(4)
        with pytest.raises(wire.MalformedEncoding, match="bad training-set magic"):
            P.decode_training_set(old)

    def test_deterministic_encoding(self):
        ts = P.TrainingSet(windows=2)
        for sid in (5, 1, 3):
            ts = P.train(ts, (float(sid), 0.0), sid)
        assert P.encode_training_set(ts) == P.encode_training_set(ts)


class TestEndToEnd:
    def test_local_20_of_20(self):
        train, test = P.default_corpus()
        ts, _ = P.run_pipeline_local(train, P.TRAIN_MODE)
        _, results = P.run_pipeline_local(
            [(None, s) for _, s in test], P.CLASSIFY_MODE, ts=ts
        )
        hits, total = P.top1_accuracy(results, [sid for sid, _ in test])
        assert (hits, total) == (20, 20)

    def test_distributed_matches_local(self):
        train, test = P.default_corpus(subjects=2, n=256)
        ts, _ = P.run_pipeline_local(train, P.TRAIN_MODE)
        _, local = P.run_pipeline_local(
            [(None, s) for _, s in test], P.CLASSIFY_MODE, ts=ts
        )

        store = DemandStore()
        workers = [
            Worker(
                WorkerConfig(worker_id=f"w{i}"),
                store,
                P.build_pipeline_registry(store),
            ).start()
            for i in range(2)
        ]
        try:
            P.run_pipeline_distributed(store, train, P.TRAIN_MODE, model_id="m")
            dist = P.run_pipeline_distributed(
                store, [(None, s) for _, s in test], P.CLASSIFY_MODE, model_id="m"
            )
        finally:
            for w in workers:
                w.stop()
            store.close()

        assert len(dist) == len(local)
        for a, b in zip(dist, local):
            assert [sid for sid, _ in a] == [sid for sid, _ in b]
            for (_, da), (_, db) in zip(a, b):
                assert da == pytest.approx(db, abs=1e-9)

    def test_train_exactly_once_despite_duplicate_deposits(self):
        # re-running the training stage must not skew the running means
        train, _ = P.default_corpus(subjects=2, n=128)
        store = DemandStore()
        w = Worker(
            WorkerConfig(worker_id="w"),
            store,
            P.build_pipeline_registry(store),
        ).start()
        try:
            P.run_pipeline_distributed(store, train, P.TRAIN_MODE, model_id="m")
            first = P.decode_training_set(store.get_resource("m"))
            P.run_pipeline_distributed(store, train, P.TRAIN_MODE, model_id="m")
            second = P.decode_training_set(store.get_resource("m"))
        finally:
            w.stop()
            store.close()
        assert first.subjects == second.subjects


class CountingStore:
    """A store that counts its resource gets and the model bytes its resource calls move."""

    def __init__(self, store):
        self.store = store
        self.model_bytes = 0
        self.gets = 0

    def __getattr__(self, name):
        return getattr(self.store, name)

    def get_resource(self, resource_id):
        data = self.store.get_resource(resource_id)
        self.gets += 1
        self.model_bytes += len(data)
        return data

    def put_resource(self, resource_id, data):
        self.model_bytes += len(data)
        self.store.put_resource(resource_id, data)


class RecordingStore:
    """A store that records the procedure name of every deposit."""

    def __init__(self, store):
        self.store = store
        self.deposited = []

    def __getattr__(self, name):
        return getattr(self.store, name)

    def deposit(self, d):
        self.deposited.append(d.signature.name)
        return self.store.deposit(d)

    def deposit_many(self, demands):
        return [self.deposit(d) for d in demands]


class TestOnePathToAModel:
    def test_classify_fetches_the_model_once_per_worker(self):
        train, test = P.default_corpus()
        store = DemandStore()
        counting = CountingStore(store)
        w = Worker(WorkerConfig(worker_id="w"), store, P.build_pipeline_registry(store)).start()
        try:
            P.run_pipeline_distributed(store, train, P.TRAIN_MODE, model_id="m")
        finally:
            w.stop()
        w = Worker(WorkerConfig(worker_id="w"), store, P.build_pipeline_registry(counting)).start()
        try:
            results = P.run_pipeline_distributed(store, [(None, s) for _, s in test], P.CLASSIFY_MODE, model_id="m")
        finally:
            w.stop()
            store.close()
        assert P.top1_accuracy(results, [sid for sid, _ in test]) == (20, 20)
        # a fetch per sample before versions were loaded by digest: 20
        assert counting.gets == 1

    def test_training_deposits_every_feature_before_its_first_step(self):
        train, _ = P.default_corpus(subjects=2, n=64)
        store = RecordingStore(DemandStore())
        workers = [
            Worker(WorkerConfig(worker_id=f"w{i}"), store.store, P.build_pipeline_registry(store.store)).start()
            for i in range(2)
        ]
        try:
            P.run_pipeline_distributed(store, train, P.TRAIN_MODE, model_id="m")
        finally:
            for w in workers:
                w.stop()
            store.close()
        names = store.deposited
        assert names.count(P.FE_PROC) == names.count(P.TRAIN_PROC) == len(train)
        assert names.index(P.TRAIN_PROC) == len(train)

    def test_threads_sharing_a_registry_read_the_right_versions(self):
        # more versions than the cache holds, so threads evict each other's entries
        store = DemandStore()
        models = [P.train(P.TrainingSet(), (float(i), 1.0), i) for i in range(12)]
        models = [P.train(ts, (1.0, float(i)), 99) for i, ts in enumerate(models)]
        digests = []
        for ts in models:
            data = P.encode_training_set(ts)
            digests.append(hashlib.sha256(data).hexdigest())
            store.put_resource(digests[-1], data)
        reg = P.build_pipeline_registry(store)
        fv = (0.5, 0.5)
        right, wrong = [], []

        def run(seed):
            rng = random.Random(seed)
            for _ in range(200):
                i = rng.randrange(len(models))
                flat = reg.invoke(P.CLASSIFY_PROC, (digests[i], fv))
                got = tuple((int(flat[k]), flat[k + 1]) for k in range(0, len(flat), 2))
                (right if got == P.classify(models[i], fv) else wrong).append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
            store.close()
        assert not any(t.is_alive() for t in threads)
        assert (len(right), wrong) == (8 * 200, [])

    def test_one_model_under_two_ids_shares_classify_results(self):
        train, test = P.default_corpus(subjects=2, n=64)
        test = [(None, s) for _, s in test]
        store = DemandStore()
        reg = P.build_pipeline_registry(store)
        invoked = []
        invoke = reg.invoke
        reg.invoke = lambda name, args: invoked.append(name) or invoke(name, args)
        w = Worker(WorkerConfig(worker_id="w"), store, reg).start()
        try:
            P.run_pipeline_distributed(store, train, P.TRAIN_MODE, model_id="a")
            store.put_resource("b", store.get_resource("a"))
            first = P.run_pipeline_distributed(store, test, P.CLASSIFY_MODE, model_id="a")
            computed = invoked.count(P.CLASSIFY_PROC)
            second = P.run_pipeline_distributed(store, test, P.CLASSIFY_MODE, model_id="b")
        finally:
            w.stop()
            store.close()
        assert computed == len(test)
        assert invoked.count(P.CLASSIFY_PROC) == computed
        assert second == first


class TestModelVersions:
    def test_train_step_is_pure(self):
        store = DemandStore()
        reg = P.build_pipeline_registry(store)
        fv = (1.0, 2.0)
        first = reg.invoke(P.TRAIN_PROC, ("", 3, fv))
        assert reg.invoke(P.TRAIN_PROC, ("", 3, fv)) == first
        data = store.get_resource(first)
        assert hashlib.sha256(data).hexdigest() == first
        assert P.decode_training_set(data).subjects == {3: (fv, 1)}
        second = reg.invoke(P.TRAIN_PROC, (first, 3, (3.0, 4.0)))
        assert P.decode_training_set(store.get_resource(second)).subjects == {3: ((2.0, 3.0), 2)}
        store.close()

    def test_missing_or_altered_version_is_a_fault(self):
        store = DemandStore()
        reg = P.build_pipeline_registry(store)
        with pytest.raises(ProcedureFault, match="no model version"):
            reg.invoke(P.TRAIN_PROC, ("ab" * 32, 1, (1.0,)))
        store.put_resource("cd" * 32, P.encode_training_set(P.TrainingSet()))
        with pytest.raises(ProcedureFault, match="does not hash to its name"):
            reg.invoke(P.TRAIN_PROC, ("cd" * 32, 1, (1.0,)))
        store.close()

    def test_chained_steps_fetch_no_version(self):
        store = DemandStore()
        counting = CountingStore(store)
        reg = P.build_pipeline_registry(counting)
        digest, local = "", P.TrainingSet()
        for step in range(20):
            fv = (float(step), 1.0)
            digest = reg.invoke(P.TRAIN_PROC, (digest, step % 4, fv))
            local = P.train(local, fv, step % 4)
        got = P.decode_training_set(store.get_resource(digest))
        store.close()
        # each step fetched the version the step before had put: 19
        assert counting.gets == 0
        assert got.subjects == local.subjects

    def test_train_bytes_per_step_do_not_grow(self):
        def bytes_per_step(seeds):
            train, _ = P.default_corpus(subjects=4, train_seeds=seeds, n=64)
            store = CountingStore(DemandStore())
            w = Worker(WorkerConfig(worker_id="w"), store.store, P.build_pipeline_registry(store)).start()
            try:
                P.run_pipeline_distributed(store, train, P.TRAIN_MODE, model_id="m")
            finally:
                w.stop()
                store.close()
            return store.model_bytes / len(train)

        # before versions were named by digest: 1081 B over 20 steps, 5577 B over 160
        assert bytes_per_step(range(1, 41)) <= bytes_per_step(range(1, 6))

    def test_training_again_replaces_the_model(self):
        first, _ = P.default_corpus(subjects=2, train_seeds=range(1, 4), n=64)
        second, _ = P.default_corpus(subjects=2, train_seeds=range(4, 6), n=64)
        store = DemandStore()
        w = Worker(WorkerConfig(worker_id="w"), store, P.build_pipeline_registry(store)).start()
        try:
            P.run_pipeline_distributed(store, first, P.TRAIN_MODE, model_id="m")
            P.run_pipeline_distributed(store, second, P.TRAIN_MODE, model_id="m")
            P.run_pipeline_distributed(store, [], P.TRAIN_MODE, model_id="empty")
            got = P.decode_training_set(store.get_resource("m"))
            empty = P.decode_training_set(store.get_resource("empty"))
        finally:
            w.stop()
            store.close()
        assert got.subjects == P.run_pipeline_local(second, P.TRAIN_MODE)[0].subjects
        assert empty.subjects == {}

    def test_concurrent_trainings_over_tcp_leave_one_whole_model(self):
        store = DemandStore()
        srv = serve_store(store)
        address = f"127.0.0.1:{srv.port}"
        clients = [connect_store(address) for _ in range(4)]
        workers = [
            Worker(WorkerConfig(worker_id=f"w{i}"), cl, P.build_pipeline_registry(cl)).start()
            for i, cl in enumerate(clients[:2])
        ]
        try:
            for run in range(3):
                sets = [
                    P.default_corpus(subjects=2, train_seeds=range(base, base + 10), n=64)[0]
                    for base in (100 * run + 1, 100 * run + 51)
                ]
                model_id = f"m{run}"
                start = threading.Barrier(2)
                errors = []

                def train(cl, samples):
                    try:
                        start.wait()
                        P.run_pipeline_distributed(cl, samples, P.TRAIN_MODE, model_id=model_id)
                    except Exception as e:  # surfaced by the assertion below
                        errors.append(e)

                threads = [threading.Thread(target=train, args=(cl, ts)) for cl, ts in zip(clients[2:], sets)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert errors == []
                got = P.decode_training_set(store.get_resource(model_id)).subjects
                wholes = [P.run_pipeline_local(ts, P.TRAIN_MODE)[0].subjects for ts in sets]
                assert got in wholes
        finally:
            for w in workers:
                w.stop()
            for cl in clients:
                cl.close()
            srv.stop()
            store.close()


class TestDistributedErrors:
    def test_unknown_mode(self):
        store = DemandStore()
        with pytest.raises(ValueError, match="unknown mode"):
            P.run_pipeline_distributed(store, [], "cluster")
        store.close()

    def test_classify_without_a_model(self):
        store = DemandStore()
        with pytest.raises(P.EmptyTrainingSet):
            P.run_pipeline_distributed(store, [], P.CLASSIFY_MODE, model_id="absent")
        store.close()

    def test_domain_error_is_fault_and_worker_lives(self):
        # a model trained with 8 windows, asked to classify 4-window features
        train, test = P.default_corpus(subjects=2, n=128)
        store = DemandStore()
        w = Worker(WorkerConfig(worker_id="w"), store, P.build_pipeline_registry(store)).start()
        try:
            P.run_pipeline_distributed(store, train, P.TRAIN_MODE, model_id="m", windows=8)
            with pytest.raises(ProcedureFault, match="^DimensionMismatch"):
                P.run_pipeline_distributed(
                    store, [(None, s) for _, s in test], P.CLASSIFY_MODE, model_id="m", windows=4, timeout_ms=3000
                )
            assert w.alive
            s = store.stats()
            assert (s.in_process, s.pending) == (0, 0)
        finally:
            w.stop()
            store.close()

    def test_classify_refuses_a_missing_or_altered_version(self):
        store = DemandStore()
        reg = P.build_pipeline_registry(store)
        with pytest.raises(ProcedureFault, match="no model version"):
            reg.invoke(P.CLASSIFY_PROC, ("ab" * 32, (1.0, 1.0)))
        store.put_resource("cd" * 32, P.encode_training_set(P.train(P.TrainingSet(), (1.0, 1.0), 1)))
        with pytest.raises(ProcedureFault, match="does not hash to its name"):
            reg.invoke(P.CLASSIFY_PROC, ("cd" * 32, (1.0, 1.0)))
        store.close()

    def test_replayed_old_classify_demand_is_an_arity_fault(self, tmp_path):
        # a log written when classify took (model_id, digest, fv) still queues such demands
        log = str(tmp_path / "store.log")
        old = ("m", "ab" * 32, (1.0, 1.0))
        first = DemandStore(log_path=log)
        first.deposit(pending_demand(P._proc_sig(P.CLASSIFY_PROC, old)))
        first.close()
        store = DemandStore(log_path=log)
        w = Worker(WorkerConfig(worker_id="w"), store, P.build_pipeline_registry(store)).start()
        try:
            with pytest.raises(ProcedureFault, match="^ArityMismatch"):
                P._call(store, P.CLASSIFY_PROC, old, 3000)
            assert w.alive
        finally:
            w.stop()
            store.close()
