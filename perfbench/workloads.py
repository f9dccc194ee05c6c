"""The four workloads, and the closed loop that times one of them.

Each workload is one client issuing one op at a time.  ``prepare(i)``
draws op ``i``'s inputs from the workload seed (untimed), ``op`` runs it
(timed), ``check`` verifies a seeded sample of ops (untimed) and
``finish`` runs the checks that need the whole run.  The program only
ever sees the generated inputs.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.accel import (
    NeighborSearchEngine,
    PointCloudAccelerator,
    evaluation_hardware,
    make_mesorasi,
    pointnetpp_cls_spec,
    workload_points,
)
from repro.core import ApproximationPipeline, ApproxSetting, TreeBufferBanking
from repro.core.approx_search import approximate_ball_query
from repro.geometry import FrameDrift, ShapeClassificationDataset
from repro.models import PointNetPPClassifier
from repro.nn.losses import softmax_cross_entropy
from repro.nn.tensor import no_grad
from repro.runtime import SearchSession, layer_sampling_plan
from repro.serve import QueryService
from repro.training import ClassificationTrainer, FixedSetting

from . import checks
from .tracing import Tracer

Problems = Dict[int, List[str]]


def _op_seed(seed: int, i: int) -> int:
    """A per-op integer seed, a pure function of (workload seed, op index);
    warm-up ops in set-up have negative indices and streams of their own."""
    return int(np.random.SeedSequence([seed, int(i < 0), abs(i)]).generate_state(1)[0])


class _Recorder:
    """Search engine wrapper that keeps each batch's arguments and answer,
    so neighbor matrices can be checked after the timed op."""

    def __init__(self, engine):
        self.engine = engine
        self.calls: list = []

    def run(self, tree, queries, radius, max_neighbors, setting):
        out = self.engine.run(tree, queries, radius, max_neighbors, setting)
        self.calls.append((tree, queries, radius, max_neighbors, setting, out))
        return out


# ----------------------------------------------------------------------
class Workload:
    """Defaults: ops in rounds of one, every op timed and checked, no
    end-of-run checks, no simulated cycles."""

    tail = 90  # percentile reported as tail_ms
    round_size = 1
    # A run times at least this many ops, and peak_rss_mb is read right
    # after the last of them, so the figure does not depend on how many
    # ops the run's seconds allow.
    min_ops = 100
    sim_cycles = 0  # accel.sim_cycles of the traced run

    def probe(self, i: int) -> bool:
        """Whether op ``i`` is a probe: an untimed op on fixed inputs whose
        check fails on every run because of a known fault in the program."""
        return False

    def checked(self, i: int) -> bool:
        return True

    def finish(self, ops: int) -> Problems:
        return {}

    def notes(self) -> Dict[str, object]:
        return {}


# ----------------------------------------------------------------------
class Hwsim(Workload):
    """Figs. 14–17 suite point for PointNet++ (c) on a fresh seeded cloud.

    Every fifth op is a probe: Mesorasi ⟨0,–⟩ alone on one fixed cloud,
    held to exact search.  ``ExhaustiveSplitSearchEngine`` routes each
    query into one sub-tree and never backtracks, so it misses in-radius
    neighbors on every cloud and the probe fails every round.  On the
    seeded clouds Mesorasi is held to the approximate-search properties,
    so the share of failed ops does not depend on the seed.
    """

    round_size = 5
    # Neighbor rows of the suite points among ops 0-9 and every 5th op
    # after are checked by brute force; every 10th op also replays one
    # seeded layer on the reference engine.
    check_every = 10
    settings = (
        ("mesorasi", ApproxSetting(0, None)),
        ("ans", ApproxSetting(4, None)),
        ("ans_bce", ApproxSetting(4, 8)),
    )
    cycle_ops = 10  # accel.sim_cycles sums the suite points of ops 0-9, a fixed input set
    probe_seed = 0  # the probe's cloud and sampling plan, the same for every --seed

    def __init__(self, seed: int):
        self.seed = seed
        self.hw = evaluation_hardware()
        self.spec = pointnetpp_cls_spec()
        self.sim_cycles = 0
        self.probe_points = workload_points(self.spec.name, seed=self.probe_seed)
        self.op(self.prepare(-1))  # warm-up: first-call costs land in set-up

    def probe(self, i: int) -> bool:
        return i % self.round_size == self.round_size - 1

    def prepare(self, i: int):
        if self.probe(i):
            return True, self.probe_seed, self.probe_points
        s = _op_seed(self.seed, i)
        return False, s, workload_points(self.spec.name, seed=s)

    def op(self, inputs):
        probe, s, points = inputs
        hw = self.hw
        session = SearchSession()
        accelerators = [make_mesorasi(hw, session=session)]
        if not probe:
            accelerators += [
                PointCloudAccelerator(
                    hw, NeighborSearchEngine(hw, session=session),
                    elide_aggregation=elide, session=session,
                )
                for elide in (False, True)
            ]
        recorders = []
        for acc in accelerators:
            acc.search_engine = _Recorder(acc.search_engine)
            recorders.append(acc.search_engine)
        plan = layer_sampling_plan(self.spec, points, s)
        results = [
            acc.run_network(self.spec, points, setting, seed=s, plan=plan)
            for acc, (_name, setting) in zip(accelerators, self.settings)
        ]
        return results, recorders

    def checked(self, i: int) -> bool:
        return i < self.cycle_ops or i % self.check_every in (0, 5) or self.probe(i)

    def check(self, i: int, inputs, outputs) -> List[str]:
        probe, s, _points = inputs
        results, recorders = outputs
        if i < self.cycle_ops and not probe:
            self.sim_cycles += sum(r.cycles for r in results)
        problems: List[str] = []
        for layer, calls in zip(self.spec.layers, zip(*(rec.calls for rec in recorders))):
            tree, queries, radius, k = calls[0][:4]
            expected = checks.brute_counts(tree.points, queries, radius, k)
            for (name, _setting), (_t, _q, _r, _k, _st, (idx, counts, _res)) in zip(
                self.settings, calls
            ):
                problems += checks.ball_rows_problems(
                    tree.points, queries, radius, idx, counts, expected,
                    exact=probe, label=f"op {i} {'probe ' * probe}{name} {layer.name}",
                )
        if i % self.check_every == 0:
            problems += self.reference_problems(i, s, recorders)
        return problems

    def reference_problems(self, i: int, s: int, recorders) -> List[str]:
        """One seeded (variant, layer) of op ``i`` against the frozen
        per-step engine: cycles, stalls, visits and neighbor matrices."""
        rng = np.random.default_rng(s)
        variant = 1 + int(rng.integers(2))
        layer = int(rng.integers(len(self.spec.layers)))
        tree, queries, radius, k, setting, (idx, counts, res) = recorders[variant].calls[layer]
        r_idx, r_counts, report = approximate_ball_query(
            tree, queries, radius, k, setting,
            banking=TreeBufferBanking(self.hw.tree_buffer.num_banks),
            num_pes=self.hw.num_pes, simulate_conflicts=True, engine="reference",
        )
        got = res.report
        if (
            (got.lockstep_cycles, got.stall_cycles, got.nodes_visited)
            != (report.lockstep_cycles, report.stall_cycles, report.nodes_visited)
            or not np.array_equal(idx, r_idx)
            or not np.array_equal(counts, r_counts)
        ):
            name = self.settings[variant][0]
            return [f"op {i} {name} {self.spec.layers[layer].name}: differs from the reference engine"]
        return []


# ----------------------------------------------------------------------
class Train(Workload):
    """One epoch of one of three PointNet++ (c) trainers, round-robin."""

    round_size = 3
    check_every = 10  # gradient check on every 10th op
    eval_every = 30  # test accuracy after every 30th epoch of a trainer
    eval_chunk = 8  # test shapes per forward pass: keeps the check off peak_rss_mb
    train_size = 24
    test_size = 64
    num_points = 160
    lr = 2e-3
    accuracy_margin = 0.25  # mean of the last three test accuracies must reach chance + this
    settings = (ApproxSetting(0, None), ApproxSetting(4, None), ApproxSetting(4, 4))

    def __init__(self, seed: int):
        self.seed = seed
        self.train_set = ShapeClassificationDataset(
            size=self.train_size, num_points=self.num_points, seed=seed,
            occlusion=0.0, noise=0.01, rotate=False,
        )
        self.test_set = ShapeClassificationDataset(
            size=self.test_size, num_points=self.num_points, seed=seed + 50_000,
            occlusion=0.0, noise=0.01, rotate=False,
        )
        session = SearchSession(max_results=8192, max_trees=512)
        self.trainers: List[ClassificationTrainer] = []
        self.losses: List[List[float]] = []
        self.last_op: List[int] = [-1] * len(self.settings)
        self.accuracies: List[List[float]] = [[] for _ in self.settings]
        for setting in self.settings:
            pipeline = ApproximationPipeline(tree_banking=TreeBufferBanking(4), session=session)
            model = PointNetPPClassifier(
                self.train_set.num_classes, np.random.default_rng(seed), pipeline
            )
            trainer = ClassificationTrainer(model, FixedSetting(setting), lr=self.lr, seed=seed)
            # The cold first epoch (neighbor matrices materialized) is set-up.
            self.losses.append(list(trainer.train(self.train_set, epochs=1).epoch_losses))
            self.trainers.append(trainer)

    def prepare(self, i: int):
        return i % len(self.trainers)

    def op(self, t: int):
        return self.trainers[t].train(self.train_set, epochs=1).epoch_losses

    def check(self, i: int, t: int, losses) -> List[str]:
        self.losses[t].extend(losses)
        self.last_op[t] = i
        problems = [f"op {i}: epoch loss {x} is not finite" for x in losses if not np.isfinite(x)]
        if (len(self.losses[t]) - 1) % self.eval_every == 0:
            self.accuracies[t].append(self.accuracy(t))
        if i % self.check_every == 0:
            problems += self.gradient_problems(i, t)
        return problems

    def gradient_problems(self, i: int, t: int, corrupt: float = 0.0) -> List[str]:
        """Three seeded parameter entries of trainer ``t`` against central
        differences of the eval-mode loss on one seeded training sample
        (drawn from six candidates, skipping any with a kink within the
        step).  ``corrupt`` is added to every analytic entry (for tests)."""
        model, setting = self.trainers[t].model, self.settings[t]
        rng = np.random.default_rng(_op_seed(self.seed, i))
        sample = int(rng.integers(len(self.train_set)))
        cloud, label = self.train_set[sample]

        def loss():
            return softmax_cross_entropy(
                model(cloud.points, setting, cache_key=sample), np.array([label])
            )

        params = model.parameters()
        model.eval()
        try:
            for p in params:
                p.zero_grad()
            loss().backward()
            entries = []
            for _ in range(6):
                p = params[int(rng.integers(len(params)))]
                index = tuple(int(rng.integers(n)) for n in p.data.shape)
                entries.append((p.data, index, float(p.grad[index]) + corrupt))
            for p in params:
                p.zero_grad()

            def loss_value():
                with no_grad():
                    return float(loss().item())

            return checks.gradient_problems(loss_value, entries, label=f"op {i} trainer {t}")
        finally:
            model.train()

    def accuracy(self, t: int) -> float:
        """Test accuracy under the trainer's own setting, from logits."""
        model = self.trainers[t].model
        points = np.stack([self.test_set[j][0].points for j in range(len(self.test_set))])
        labels = np.array([self.test_set[j][1] for j in range(len(self.test_set))])
        model.eval()
        try:
            with no_grad():
                logits = np.concatenate([
                    model.forward_batch(points[lo : lo + self.eval_chunk], self.settings[t], None)
                    .data.reshape(len(points[lo : lo + self.eval_chunk]), -1)
                    for lo in range(0, len(points), self.eval_chunk)
                ])
        finally:
            model.train()
        return float((logits.argmax(axis=1) == labels).mean())

    def notes(self) -> Dict[str, object]:
        return {"test_accuracy_last_three": [[round(a, 3) for a in acc[-3:]] for acc in self.accuracies]}

    def finish(self, ops: int) -> Problems:
        out: Problems = {}
        chance = 1.0 / self.train_set.num_classes
        for t, losses in enumerate(self.losses):
            problems = []
            if not losses[-1] < losses[0]:
                problems.append(f"trainer {t}: last epoch loss {losses[-1]:.4f} not below first {losses[0]:.4f}")
            # One evaluation can catch a transient dip of per-sample SGD
            # (0.31 seen once in 120); the mean of the last three cannot.
            self.accuracies[t].append(self.accuracy(t))
            acc = float(np.mean(self.accuracies[t][-3:]))
            if acc < chance + self.accuracy_margin:
                problems.append(f"trainer {t}: test accuracy {acc:.3f} below chance {chance:.3f} + {self.accuracy_margin}")
            if problems:
                out[max(self.last_op[t], 0)] = problems
        return out


# ----------------------------------------------------------------------
class Serve(Workload):
    """One batch of mixed requests through ``QueryService``."""

    check_every = 8
    batch = 16
    cold_per_batch = 2  # requests per batch that bring a never-seen cloud
    pool_size = 8
    cloud_size = 2048
    queries_per_request = 64
    radii = (0.1, 0.15, 0.25)
    max_neighbors = (8, 16, 32)

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.pool = [rng.normal(size=(self.cloud_size, 3)) for _ in range(self.pool_size)]
        self.service = QueryService(SearchSession())
        # Warm-up: every pool cloud is served once, so its tree is built here.
        warm = [
            (cloud, cloud[: self.queries_per_request], self.radii[0], self.max_neighbors[0])
            for cloud in self.pool
        ]
        self.op(warm)

    def prepare(self, i: int):
        rng = np.random.default_rng(_op_seed(self.seed, i))
        requests = []
        for j in range(self.batch):
            if j < self.cold_per_batch:
                cloud = rng.normal(size=(self.cloud_size, 3))
            else:
                cloud = self.pool[int(rng.integers(self.pool_size))]
            queries = cloud[rng.integers(0, self.cloud_size, size=self.queries_per_request)]
            requests.append((
                cloud, queries,
                float(self.radii[int(rng.integers(len(self.radii)))]),
                int(self.max_neighbors[int(rng.integers(len(self.max_neighbors)))]),
            ))
        order = rng.permutation(self.batch)  # cold requests anywhere in the batch
        return [requests[j] for j in order]

    def op(self, requests):
        tickets = [self.service.submit(*request) for request in requests]
        self.service.flush()
        return [ticket.result() for ticket in tickets]

    def checked(self, i: int) -> bool:
        return i % self.check_every == 0

    def check(self, i: int, requests, results) -> List[str]:
        problems: List[str] = []
        for j, ((points, queries, radius, k), (idx, counts)) in enumerate(zip(requests, results)):
            expected = np.minimum(checks.hit_counts(points, queries, radius), k)
            problems += checks.ball_rows_problems(
                points, queries, radius, idx, counts, expected, exact=True,
                label=f"op {i} request {j}",
            )
        return problems


# ----------------------------------------------------------------------
class Drift(Workload):
    """One frame against a registered dynamic cloud: update, submit, flush.

    The initial cloud is a :class:`~repro.geometry.FrameDrift` scene.  The
    frames follow FrameDrift's rule — remove a ``churn`` share of the alive
    points, re-insert them moved by a slowly rotating drift velocity plus
    jitter, query near the alive surface — but are drawn here over a
    constant-size live list, because ``FrameDrift.step`` costs time in
    every slot ever allocated, which would make the untimed input
    generation outgrow the timed ops within one run.

    The service never reuses a slot, so its memory grows with every frame;
    ``min_ops`` fixes the frame after which ``peak_rss_mb`` is read.  The
    benchmark itself keeps only the alive points, so its own share of the
    figure stays constant.
    """

    min_ops = 2000
    check_every = 200
    num_points = 2048
    churn = 0.01
    drift = 0.2  # FrameDrift's defaults
    jitter = 0.02
    query_spread = 0.5
    requests_per_frame = 2
    queries_per_request = 32
    radii = (1.0, 1.5, 2.5)
    max_neighbors = (8, 16, 32)
    warm_frames = 5

    def __init__(self, seed: int):
        self.seed = seed
        initial = FrameDrift(num_points=self.num_points, churn=self.churn, seed=seed).initial_points
        self.rng = np.random.default_rng([seed, 1])
        self.frame = 0
        # Slots are handed out in insertion order and never reused.
        self.live = np.arange(len(initial))  # slot ids of the alive points
        self.live_coords = np.array(initial, dtype=np.float64)  # their coordinates
        self.n = len(initial)  # slots handed out so far
        self.service = QueryService(SearchSession())
        self.handle = self.service.register_dynamic(initial)
        for i in range(-self.warm_frames, 0):
            self.op(self.prepare(i))

    def prepare(self, i: int):
        rng = self.rng
        k = max(1, int(round(self.churn * len(self.live))))
        picked = rng.choice(len(self.live), size=k, replace=False)
        picked = picked[np.argsort(self.live[picked])]  # removes in slot order
        removes = self.live[picked]
        angle = 0.13 * self.frame
        velocity = self.drift * np.array([np.cos(angle), np.sin(angle), 0.0])
        inserts = self.live_coords[picked] + velocity + rng.normal(scale=self.jitter, size=(k, 3))
        self.live[picked] = np.arange(self.n, self.n + k)
        self.live_coords[picked] = inserts
        self.n += k
        self.frame += 1
        requests = []
        for _ in range(self.requests_per_frame):
            anchors = rng.integers(len(self.live), size=self.queries_per_request)
            queries = self.live_coords[anchors] + rng.normal(
                scale=self.query_spread, size=(self.queries_per_request, 3)
            )
            requests.append((
                queries,
                float(self.radii[int(rng.integers(len(self.radii)))]),
                int(self.max_neighbors[int(rng.integers(len(self.max_neighbors)))]),
            ))
        return (inserts, removes), requests

    def op(self, inputs):
        (inserts, removes), requests = inputs
        self.service.update(self.handle, inserts=inserts, removes=removes)
        tickets = [self.service.submit_dynamic(self.handle, *request) for request in requests]
        self.service.flush()
        return [ticket.result() for ticket in tickets]

    def checked(self, i: int) -> bool:
        return i % self.check_every == 0

    def check(self, i: int, inputs, results) -> List[str]:
        _mutation, requests = inputs
        # The slot space as the scratch rebuild reads it; dead slots'
        # coordinates are never read.
        coords = np.zeros((self.n, 3))
        coords[self.live] = self.live_coords
        alive = np.zeros(self.n, dtype=bool)
        alive[self.live] = True
        return checks.frame_problems(coords, alive, requests, results, label=f"frame {i}")


WORKLOADS = {"hwsim": Hwsim, "train": Train, "serve": Serve, "drift": Drift}


# ----------------------------------------------------------------------
def environment() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


# ----------------------------------------------------------------------
# Speed calibration.  The CPU of a shared virtual machine runs the same
# code at speeds that differ by 10-20% from one minute, or one process, to
# the next.  A fixed kernel that does not touch ``repro`` is timed between
# ops; every time a run reports is scaled by CAL_REF_S / (the kernel's
# median time in that run), i.e. expressed at the speed at which the
# kernel takes CAL_REF_S.
_CAL_RNG = np.random.default_rng(12345)
_CAL_POINTS = _CAL_RNG.normal(size=(512, 3))
_CAL_ORDER = [int(j) for j in _CAL_RNG.permutation(512)]
CAL_REF_S = 1.3e-3  # the kernel's median CPU time on the reference machine
CAL_EVERY_S = 0.02  # one kernel run per this much op CPU time
CAL_SETUP_RUNS = 50  # kernel runs after each set-up


def calibration_kernel() -> int:
    """Small numpy calls and interpreter work, as in the program's hot
    paths: distances, a partial sort and a Python loop over the result."""
    total = 0
    for j in _CAL_ORDER[:36]:
        d = ((_CAL_POINTS - _CAL_POINTS[j]) ** 2).sum(axis=1)
        near = np.argpartition(d, 16)[:16]
        seen = {}
        for k in near.tolist():
            seen[k] = seen.get(k, 0) + 1
        total += len(seen)
    return total


def calibrate(runs: int) -> List[float]:
    times = []
    for _ in range(runs):
        c0 = time.process_time()
        calibration_kernel()
        times.append(time.process_time() - c0)
    return times


def tail_ms(latencies: Sequence[float], pct: int) -> float:
    return 1e3 * float(np.percentile(latencies, pct))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    setup_only: bool = False,
) -> Dict[str, object]:
    """Set up one workload, then time ops until ``seconds`` of op wall time
    and at least ``min_ops`` timed ops, in whole rounds.

    Times are CPU time of this process (``time.process_time``): set-up
    from process start, so it includes the imports, and each op from its
    start to its end.  On a shared virtual machine wall time also counts
    the time the hypervisor gives to other guests (steal), which is not
    the program's; the wall-time figures are returned beside them.  The
    op times and set-up time are scaled to the reference speed of
    ``calibration_kernel`` (see ``CAL_REF_S``).
    Probe ops are run and checked but not timed.  Returns the run's raw
    figures; per-layer figures only when ``trace`` is set.
    """
    cpu, wall = time.process_time, time.perf_counter
    cls = WORKLOADS[name]
    tracer: Optional[Tracer] = None
    if trace:
        tracer = Tracer()
        tracer.install()
        tracer.phase = "setup"
    try:
        workload = cls(seed)
        setup_cpu_s = cpu()
        setup_speed = CAL_REF_S / float(np.median(calibrate(CAL_SETUP_RUNS)))
        result: Dict[str, object] = {
            "workload": name, "seed": seed, "setup_s": setup_cpu_s * setup_speed,
        }
        if setup_only:
            return result
        latencies: List[float] = []
        wall_latencies: List[float] = []
        failed: Problems = {}
        busy = 0.0
        wall_busy = 0.0
        cal: List[float] = []
        owed = 0.0  # op CPU time not yet followed by a calibration
        rss = 0.0
        i = 0
        while wall_busy < seconds or len(latencies) < cls.min_ops or i % cls.round_size:
            inputs = workload.prepare(i)
            timed = not workload.probe(i)
            if tracer and timed:
                tracer.phase = "ops"
            w0, c0 = wall(), cpu()
            outputs = workload.op(inputs)
            dt, dw = cpu() - c0, wall() - w0
            if tracer:
                tracer.phase = None
            if timed:
                latencies.append(dt)
                wall_latencies.append(dw)
                busy += dt
                wall_busy += dw
                owed += dt
                if owed >= CAL_EVERY_S:
                    cal += calibrate(int(owed / CAL_EVERY_S))
                    owed %= CAL_EVERY_S
            if workload.checked(i):
                problems = workload.check(i, inputs, outputs)
                if problems:
                    failed[i] = problems
            if timed and len(latencies) == cls.min_ops:
                rss = peak_rss_mb()
            i += 1
        for op, problems in workload.finish(i).items():
            failed.setdefault(op, []).extend(problems)
        # A probe fails the same way every round: its first failure is shown.
        probes = [op for op in sorted(failed) if workload.probe(op)]
        for op in sorted(failed):
            if op not in probes[1:]:
                for problem in failed[op]:
                    print(f"check failed: {problem}", file=sys.stderr)
        if len(probes) > 1:
            print(f"check failed: {len(probes)} probes in all", file=sys.stderr)
        timed_ops = len(latencies)
        speed = CAL_REF_S / float(np.median(cal or calibrate(CAL_SETUP_RUNS)))
        result.update(
            ops=i,
            failed=len(failed),
            failed_probes=sum(workload.probe(op) for op in failed),
            timed_ops=timed_ops,
            busy_s=busy,
            speed=speed,
            calibrations=len(cal),
            ops_per_s=timed_ops / (busy * speed),
            p50_ms=1e3 * speed * float(np.median(latencies)),
            tail_pct=cls.tail,
            tail_ms=speed * tail_ms(latencies, cls.tail),
            cpu_p50_ms=1e3 * float(np.median(latencies)),
            wall_busy_s=wall_busy,
            wall_p50_ms=1e3 * float(np.median(wall_latencies)),
            peak_rss_mb=rss,
            env=environment(),
            notes=workload.notes(),
        )
        if tracer:
            layers, missing = tracer.metrics(timed_ops)
            layers["accel.sim_cycles"] = (float(workload.sim_cycles), "cycles")
            layers["trace.p50_ms"] = (result["p50_ms"], "ms")
            result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            result["missing"] = missing
        return result
    finally:
        if tracer:
            tracer.uninstall()
