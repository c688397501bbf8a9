"""Model-guided cross-image batch scheduler.

The paper partitions a *single* image's pixel stage across CPU and GPU
with fitted closed forms (SPS/PPS, Section 5.2).  This module applies
the same models one level up: given a whole **batch** of images, price
every image on every available executor lane and assign whole images to
lanes so the predicted makespan — the busiest lane's total — is
minimized.  That is the ROADMAP's "cross-image partitioning" study, and
the batch-scale counterpart of Weißenberger & Schmidt's whole-image GPU
routing (arXiv:2111.09219).

Three cooperating pieces:

- **Pricing** — :meth:`repro.core.perfmodel.PerformanceModel.price`
  evaluates Eq 5/6 (+ dispatch) per ``(width, height, density)`` triple;
  :func:`price_images` maps a batch over a lane set, marking lanes that
  cannot run an image (e.g. GPU lanes on 4:2:0, outside the paper's
  kernel scope) as ineligible (``inf``).
- **Assignment** — :func:`schedule_lpt` runs the classic
  longest-processing-time greedy: images sorted by descending best-lane
  cost, each placed on the lane minimizing ``load + cost * scale``.
  :func:`schedule_roundrobin` is the cost-blind baseline the benchmark
  compares against.  Only whole images are placed: whether an image
  fans out instead (restart-segment runs or speculative chunks) is the
  decoder's one decision, taken before placement
  (:meth:`~repro.service.batch.BatchDecoder._fans_out`, priced by
  :func:`fanout_pays`), and such an image is never handed over.
- **Feedback** — :class:`ThroughputFeedback` keeps one EWMA correction
  factor per lane from observed vs. predicted per-image times, so the
  schedule adapts across batches the way PPS re-partitioning (Eq 16/17)
  adapts within an image.

:class:`ModelScheduler` ties the pieces together behind the two calls
:class:`~repro.service.batch.BatchDecoder` makes: :meth:`ModelScheduler.plan`
before submission and :meth:`ModelScheduler.observe` after completion.
"""

from __future__ import annotations

import math
import threading
import time
from typing import TYPE_CHECKING, Callable, Collection, NamedTuple, Sequence

from ..core.perfmodel import PerformanceModel, fitted_model
from ..core.platform import Platform
from ..errors import ServiceError
from ..jpeg.markers import FrameInfo, walk_header
from ..kernels.options import KERNEL_SUBSAMPLINGS
from .tasks import read_header

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (batch imports us)
    from .batch import ImageRequest, ImageResult
    from .workers import WorkerPool

#: Scheduling policies :class:`ModelScheduler` implements.
POLICIES = ("model", "roundrobin")

#: What fanning one image out must save before it is taken, in model
#: microseconds.  Fan-out adds a serial share only a fanned-out image
#: pays: the parent-side parse and destuffing prescan, one more
#: dispatch, lease and reply per unit, the overlap every speculative
#: chunk decodes twice, and the stitch or scatter of the units' planes.
#: (The pixel stages cost the same on either path: a worker runs them
#: for a whole image, the pump thread for a fanned-out one.)  Fitted
#: on the 2-core ledger host over the ``http_mixed`` members with
#: the parallel saving taken out — two units on *one* ``process``
#: worker against the same image whole on that worker, best of 9: 1.3-
#: 1.9 ms for the 256x192 thumbnails (``THuff`` 155-227 us), 2.5 / 4.4
#: ms for the 448x336 previews (454 / 660), 3.7 / 5.1 ms for the frames
#: (775 / 1,360), against 25 us of that host's entropy decode per
#: modelled microsecond: about 3 ms = 125 model microseconds where the
#: decision is close.  The price is twice that.  The overhead is also
#: CPU the rest of the batch would have used, so a fan-out has to win
#: it back once for its own latency and once for its neighbours'; and
#: a predicted gain of a millisecond or two is inside dispatch jitter.
#: Table: ``docs/benchmarks.md``, "Measured constants".
FANOUT_FIXED_US = 250.0

#: EWMA weight of a lane's newest observed/predicted ratio in
#: :class:`ThroughputFeedback`.
FEEDBACK_ALPHA = 0.3


def fanout_pays(entropy_us: float, units: int) -> bool:
    """True when decoding an image's entropy data as *units* parallel
    tasks is predicted to finish sooner than decoding it whole:
    ``entropy_us / units + FANOUT_FIXED_US < entropy_us`` (both sides
    add the same pixel stages).  *entropy_us* is the image's Eq 4 term
    (``THuff``) in its header-only closed form,
    :func:`~repro.jpeg.fast_entropy.modeled_entropy_us`."""
    return units > 1 and entropy_us * (1.0 - 1.0 / units) > FANOUT_FIXED_US


class ExecutorLane(NamedTuple):
    """One schedulable lane: what the scheduler assigns whole images to.

    In a decoder a lane is something that decodes: the decoder's one
    local pool (:func:`local_lane`) or a link to another machine
    (:class:`~repro.service.remote.RemoteLane`); every image decodes
    with :func:`~repro.jpeg.decoder.decode_jpeg` wherever it lands.
    The *kind* — the *platform*'s SIMD CPU (``"simd"``), plain
    sequential CPU (``"seq"``) or GPU (``"gpu"``) — is the pricing key
    for :meth:`repro.core.perfmodel.PerformanceModel.price`: the
    fitted model's prior, which each lane's wall-time EWMA
    (:class:`ThroughputFeedback`) corrects to what it measures.
    """

    name: str
    kind: str
    platform: Platform

    def eligible(self, subsampling: str) -> bool:
        """GPU lanes cover only the paper's kernel scope (4:4:4/4:2:2);
        CPU lanes decode everything."""
        if self.kind == "gpu":
            return subsampling in KERNEL_SUBSAMPLINGS
        return True

    def open_pool(self) -> "WorkerPool | None":
        """The pool only this lane can provide, or None (every local
        lane) to run on the decoder's one local pool.  A lane that
        lives on another machine answers with the link to it
        (:class:`~repro.service.remote.RemoteLane`)."""
        return None


def local_lane(platform: Platform) -> ExecutorLane:
    """The decoder's one local pool as a lane, priced at *platform*'s
    SIMD CPU rate — the lane a scheduled local session has."""
    return ExecutorLane(name="local", kind="simd", platform=platform)


def default_executors(platform: Platform) -> tuple[ExecutorLane, ...]:
    """The paper's device lanes of one platform, its SIMD CPU and its
    GPU: the lane set of model-level pricing studies (the cross-image
    makespan claim).  Names are prefixed with the platform so several
    platforms' lanes stay distinct.
    """
    slug = platform.name.lower().replace(" ", "")
    return (
        ExecutorLane(name=f"{slug}-simd", kind="simd", platform=platform),
        ExecutorLane(name=f"{slug}-gpu", kind="gpu", platform=platform),
    )


class ImagePricing(NamedTuple):
    """One image's scheduler-relevant facts and per-lane predictions."""

    index: int                    # position in the submitted batch
    width: int
    height: int
    density: float
    subsampling: str
    #: Predicted decode time (us) per lane name; ``inf`` = ineligible —
    #: on every lane when the request must decode whole
    #: (:func:`whole_image_only`) or the fitted model has no surface for
    #: its component layout: it stays unassigned and decodes on the
    #: default pool.
    costs: dict[str, float]


class Assignment(NamedTuple):
    """Where one image of the batch was placed."""

    index: int
    #: Lane the image runs on; None when no lane could take it (or it
    #: was never priced) — it decodes as submitted on the default pool.
    executor: ExecutorLane | None
    #: Model-predicted decode time on that lane (us), feedback-scaled.
    predicted_us: float = 0.0


class BatchSchedule(NamedTuple):
    """The outcome of planning one batch: placements + predicted loads."""

    policy: str
    assignments: list[Assignment]
    #: Predicted total busy time per lane name (us).
    loads: dict[str, float]
    pricings: list[ImagePricing]
    #: Per-lane placement caps the batch was planned under
    #: (:meth:`LaneBreakerBoard.limits`); empty = no breakers active.
    lane_limits: dict
    #: Round-robin only: lane index where the next batch's rotation
    #: resumes, so streams of small batches keep cycling lanes.
    rr_next_cursor: int = 0
    #: Lane names excluded from this plan by an open circuit breaker
    #: (limit 0) — surfaced so traced requests can record a
    #: ``lane_excluded`` event.
    excluded: tuple = ()

    @property
    def makespan_us(self) -> float:
        """Predicted batch completion time: the busiest lane's load."""
        return max(self.loads.values(), default=0.0)


class ThroughputFeedback:
    """Per-lane EWMA correction of the model's predictions.

    After each batch the service reports ``(predicted_us, observed_us)``
    pairs per lane; the scheduler multiplies future predictions for that
    lane by the smoothed observed/predicted ratio.  This is the
    cross-batch analog of the paper's Eq 17 density correction: the
    fitted polynomials stay fixed, a single scalar absorbs what the fit
    got wrong for the traffic actually seen.
    """

    def __init__(self) -> None:
        """No lane observed yet: every scale reads 1.0."""
        self._scales: dict[str, float] = {}
        self.observations = 0

    def scale(self, lane_name: str) -> float:
        """Current multiplier for *lane_name* (1.0 until observed)."""
        return self._scales.get(lane_name, 1.0)

    def scales(self) -> dict[str, float]:
        """Snapshot of every lane's current multiplier."""
        return dict(self._scales)

    def observe(self, lane_name: str, predicted_us: float,
                observed_us: float) -> None:
        """Fold one completed image's prediction error into the lane."""
        if predicted_us <= 0 or observed_us <= 0 \
                or not math.isfinite(predicted_us) \
                or not math.isfinite(observed_us):
            return
        ratio = observed_us / predicted_us
        prev = self._scales.get(lane_name)
        if prev is None:
            self._scales[lane_name] = ratio
        else:
            self._scales[lane_name] = (1 - FEEDBACK_ALPHA) * prev \
                + FEEDBACK_ALPHA * ratio
        self.observations += 1

    def reset(self, lane_name: str) -> None:
        """Forget one lane's learned scale (back to 1.0).

        Called when that lane's circuit breaker trips: the EWMA was
        shaped by a device that is now failing, so after the lane heals
        the scale must re-learn from scratch rather than anchor on the
        sick-lane history.
        """
        self._scales.pop(lane_name, None)


class _LaneBreaker:
    """Per-lane circuit-breaker state (see :class:`LaneBreakerBoard`)."""

    state: str = "closed"
    #: Consecutive infrastructure failures while closed.
    consecutive_failures: int = 0
    #: Monotonic clock reading when the breaker last tripped open.
    tripped_at: float = 0.0
    #: Times the breaker tripped open (lifetime).
    trips: int = 0
    #: Times a half-open canary closed the breaker again (lifetime).
    recoveries: int = 0


class LaneBreakerBoard:
    """Circuit breakers for executor lanes, one per lane name.

    The paper's scheduler assumes every lane completes its work; a lane
    whose pool keeps crashing (GPU driver wedged, its processes OOMing)
    violates that silently — the LPT greedy would keep routing images
    into the failure.  The board runs the classic three-state breaker
    per lane:

    - **closed** — normal service.  *threshold* consecutive
      infrastructure failures (``ImageResult.infra_failure``; decode
      errors are properties of the bytes and never count) trip the lane
      **open**.
    - **open** — the lane is excluded from placement
      (:meth:`limits` reports 0, the schedulers treat every cost as
      ``inf``).  After *cooldown_s* the next :meth:`limits` call moves
      it to **half_open**.
    - **half_open** — exactly one canary image may be placed
      (:meth:`limits` reports 1).  A successful canary closes the
      breaker; another infrastructure failure re-trips it open for a
      fresh cooldown.

    *clock* defaults to :func:`time.monotonic`; tests inject a fake to
    step through cooldowns deterministically.  All methods are
    thread-safe.
    """

    def __init__(self, threshold: int = 3, cooldown_s: float = 5.0,
                 clock: Callable[[], float] | None = None) -> None:
        """Build an empty board; breakers materialize per lane on first
        :meth:`record`/:meth:`limits` touch."""
        if threshold < 1:
            raise ServiceError(
                f"breaker threshold must be >= 1, got {threshold}")
        if cooldown_s < 0:
            raise ServiceError(
                f"breaker cooldown must be >= 0, got {cooldown_s}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._breakers: dict[str, _LaneBreaker] = {}

    def _get(self, lane_name: str) -> _LaneBreaker:
        """Fetch-or-create one lane's breaker (lock held by caller)."""
        breaker = self._breakers.get(lane_name)
        if breaker is None:
            breaker = self._breakers[lane_name] = _LaneBreaker()
        return breaker

    def record(self, lane_name: str, ok: bool) -> bool:
        """Fold one lane-placed image's infrastructure outcome.

        *ok* is False only for infrastructure failures (worker crashed
        past its retry budget), True for any completed decode — a
        corrupt JPEG proves the lane *works*.  Returns True when this
        very record tripped the breaker open (callers use the edge to
        reset the lane's feedback scale exactly once per trip).
        """
        with self._lock:
            breaker = self._get(lane_name)
            if ok:
                if breaker.state == "half_open":
                    breaker.recoveries += 1
                breaker.state = "closed"
                breaker.consecutive_failures = 0
                return False
            if breaker.state == "half_open":
                breaker.state = "open"
                breaker.tripped_at = self._clock()
                breaker.trips += 1
                breaker.consecutive_failures = 0
                return True
            breaker.consecutive_failures += 1
            if (breaker.state == "closed"
                    and breaker.consecutive_failures >= self.threshold):
                breaker.state = "open"
                breaker.tripped_at = self._clock()
                breaker.trips += 1
                breaker.consecutive_failures = 0
                return True
            return False

    def state(self, lane_name: str) -> str:
        """Current state name for *lane_name* (untracked lanes are
        closed); advances open→half_open when the cooldown elapsed."""
        self.limit(lane_name)  # advance open→half_open when due
        with self._lock:
            breaker = self._breakers.get(lane_name)
            return breaker.state if breaker is not None else "closed"

    def limit(self, lane_name: str) -> int | None:
        """Placement cap for one lane this batch.

        ``None`` = unlimited (closed), ``0`` = excluded (open, cooling
        down), ``1`` = a single canary (half-open).  An open breaker
        whose cooldown has elapsed transitions to half-open here — the
        read is the probe trigger, so no background timer is needed.
        """
        with self._lock:
            breaker = self._breakers.get(lane_name)
            if breaker is None or breaker.state == "closed":
                return None
            if breaker.state == "open":
                if self._clock() - breaker.tripped_at >= self.cooldown_s:
                    breaker.state = "half_open"
                    return 1
                return 0
            return 1  # half_open: one canary at a time

    def limits(self, lane_names: "Sequence[str]") -> dict[str, int | None]:
        """Placement caps for a lane set (see :meth:`limit`), suitable
        for :func:`schedule_lpt`'s ``lane_limits`` argument."""
        return {name: self.limit(name) for name in lane_names}

    def trips(self) -> int:
        """Lifetime count of breaker trips across every lane."""
        with self._lock:
            return sum(b.trips for b in self._breakers.values())

    def snapshot(self) -> dict:
        """JSON-ready per-lane breaker state for ``GET /stats``."""
        with self._lock:
            now = self._clock()
            out: dict[str, dict] = {}
            for name, b in self._breakers.items():
                entry = {
                    "state": b.state,
                    "consecutive_failures": b.consecutive_failures,
                    "trips": b.trips,
                    "recoveries": b.recoveries,
                }
                if b.state == "open":
                    entry["cooldown_remaining_s"] = max(
                        0.0, self.cooldown_s - (now - b.tripped_at))
                out[name] = entry
            return out


def whole_image_only(info: FrameInfo, salvage: bool = False) -> bool:
    """True when a request decodes whole on the default pool or not at
    all — the one rule pricing, placement and the fan-out decision
    share: a progressive stream accumulates coefficients across scans,
    so it has no fan-out units and no modelled price; a salvage
    decode's error map needs one decoder's view of the damage."""
    return salvage or info.progressive


def price_images(
    infos: Sequence[tuple[int, FrameInfo]],
    executors: Sequence[ExecutorLane],
    model_for: "callable",
    salvage: "Collection[int]" = (),
) -> list[ImagePricing]:
    """Price images on every lane from their headers.

    *infos* holds ``(batch_index, FrameInfo)`` pairs (the frame-level
    facts of :func:`~repro.jpeg.markers.walk_header`: the paper's model
    inputs are width, height and file size); *model_for* is
    ``f(platform, subsampling) -> PerformanceModel`` (the scheduler
    passes :func:`~repro.core.perfmodel.fitted_model`).  Lanes ineligible
    for an image's subsampling price as ``inf``; CPU lanes on 4:2:0 fall
    back to the platform's 4:2:2 model — the closest fitted surface,
    since 4:2:0 is outside the paper's profiling scope.  *salvage* names
    the batch indices whose request asked for a salvage decode.
    """
    pricings = []
    for index, info in infos:
        sub = info.subsampling_mode
        pricing = ImagePricing(
            index=index, width=info.width, height=info.height,
            density=info.file_density, subsampling=sub, costs={})
        if whole_image_only(info, index in salvage) \
                or len(info.frame.components) != 3:
            # The fitted models price 3-component baseline frames
            # only; these images stay unassigned.
            for lane in executors:
                pricing.costs[lane.name] = math.inf
            pricings.append(pricing)
            continue
        model_sub = sub if sub in KERNEL_SUBSAMPLINGS else "4:2:2"
        for lane in executors:
            if not lane.eligible(sub):
                pricing.costs[lane.name] = math.inf
                continue
            model: PerformanceModel = model_for(lane.platform, model_sub)
            pricing.costs[lane.name] = model.price(
                lane.kind, info.width, info.height, info.file_density)
        pricings.append(pricing)
    return pricings


def _scaled_cost(pricing: ImagePricing, lane: ExecutorLane,
                 feedback: ThroughputFeedback | None) -> float:
    """Model cost for (image, lane), corrected by the feedback scale."""
    cost = pricing.costs.get(lane.name, math.inf)
    if feedback is not None and math.isfinite(cost):
        cost *= feedback.scale(lane.name)
    return cost


def schedule_lpt(
    pricings: Sequence[ImagePricing],
    executors: Sequence[ExecutorLane],
    feedback: ThroughputFeedback | None = None,
    lane_limits: "dict[str, int | None] | None" = None,
) -> BatchSchedule:
    """Makespan-minimizing greedy (LPT) over the priced batch.

    Images are placed in descending order of their best-lane cost, each
    onto the lane minimizing ``current load + scaled cost`` (ties break
    toward the earlier lane in *executors*, so identical batches
    schedule identically).  Every cost — the sort key and the
    placement — is feedback-scaled, so the greedy keeps optimizing the
    *corrected* makespan once observations drift the scales away from
    1.0.  LPT is the classic 4/3-approximation for minimum-makespan
    scheduling on unrelated machines' restricted cousin; cost-aware
    placement is what the round-robin baseline lacks.

    An image none of *executors* can take (every scaled cost ``inf`` —
    e.g. a lane subset excluding its only eligible lanes) is returned
    unassigned rather than raising, matching :meth:`ModelScheduler.plan`'s
    contract for unpriceable images.

    *lane_limits* (from
    :meth:`LaneBreakerBoard.limits`) caps placements per lane: ``0``
    excludes a tripped lane entirely, ``1`` admits the half-open canary,
    ``None``/absent is unlimited.  Images no admissible lane can take
    degrade to unassigned (decoded as submitted on the default pool)
    rather than being forced onto a tripped lane.
    """
    limits = lane_limits or {}
    placed: dict[str, int] = {lane.name: 0 for lane in executors}
    assignments: list[Assignment] = []
    loads: dict[str, float] = {lane.name: 0.0 for lane in executors}

    def admissible(lane: ExecutorLane) -> bool:
        cap = limits.get(lane.name)
        return cap is None or placed[lane.name] < cap

    def scaled_best(pricing: ImagePricing) -> float:
        return min((_scaled_cost(pricing, lane, feedback)
                    for lane in executors if admissible(lane)),
                   default=math.inf)

    for pricing in sorted(pricings, key=scaled_best, reverse=True):
        best_lane, best_total, best_cost = None, math.inf, math.inf
        for lane in executors:
            if not admissible(lane):
                continue
            cost = _scaled_cost(pricing, lane, feedback)
            total = loads[lane.name] + cost
            if total < best_total:
                best_lane, best_total, best_cost = lane, total, cost
        if best_lane is None:
            # No lane can take it, or capacity (breaker caps) ran out
            # mid-batch: leave it unassigned, decoded as submitted.
            assignments.append(Assignment(index=pricing.index, executor=None))
            continue
        assignments.append(Assignment(
            index=pricing.index, executor=best_lane, predicted_us=best_cost))
        loads[best_lane.name] += best_cost
        placed[best_lane.name] += 1

    assignments.sort(key=lambda a: a.index)
    return BatchSchedule(policy="model", assignments=assignments,
                         loads=loads, pricings=list(pricings),
                         lane_limits=dict(limits))


def schedule_roundrobin(
    pricings: Sequence[ImagePricing],
    executors: Sequence[ExecutorLane],
    feedback: ThroughputFeedback | None = None,
    start: int = 0,
    lane_limits: "dict[str, int | None] | None" = None,
) -> BatchSchedule:
    """Cost-blind baseline: cycle lanes in batch order.

    Each image goes to the next lane in rotation (skipping lanes
    ineligible for its subsampling and lanes at their *lane_limits*
    breaker cap — see :func:`schedule_lpt`), beginning at lane index
    *start* — :class:`ModelScheduler` threads the previous batch's end
    position through so a stream of small batches still rotates every
    lane.  Loads are accounted with the model's prices so the two
    policies' makespans are comparable.
    """
    limits = lane_limits or {}
    placed: dict[str, int] = {lane.name: 0 for lane in executors}
    assignments: list[Assignment] = []
    loads: dict[str, float] = {lane.name: 0.0 for lane in executors}
    cursor = start % len(executors) if executors else 0
    for pricing in pricings:
        lane = None
        for probe in range(len(executors)):
            candidate = executors[(cursor + probe) % len(executors)]
            cap = limits.get(candidate.name)
            if cap is not None and placed[candidate.name] >= cap:
                continue
            if math.isfinite(pricing.costs.get(candidate.name, math.inf)):
                lane = candidate
                cursor = (cursor + probe + 1) % len(executors)
                break
        if lane is None:
            assignments.append(Assignment(index=pricing.index, executor=None))
            continue
        cost = _scaled_cost(pricing, lane, feedback)
        assignments.append(Assignment(
            index=pricing.index, executor=lane, predicted_us=cost))
        loads[lane.name] += cost
        placed[lane.name] += 1
    return BatchSchedule(policy="roundrobin", assignments=assignments,
                         loads=loads, pricings=list(pricings),
                         rr_next_cursor=cursor, lane_limits=dict(limits))


def lane_outcomes(schedule: BatchSchedule, results: "Sequence[ImageResult]"
                  ) -> "list[tuple[Assignment, float]]":
    """Pair lane-placed assignments with their observed decode times.

    Returns ``(assignment, observed_us)`` for every successfully decoded
    image the schedule placed on a lane.  Every lane decodes for real
    and is observed by its measured busy time (``ImageResult.wall_us``),
    as the paper's Eq 16/17 correct the model against the measured time
    of the device it priced, so each lane's EWMA scale converges to the
    ratio of its genuine speed to the fitted prior.  Images decoded
    outside a lane (fanned out, unassigned) have no comparable
    observation and are excluded, as are failures.  Both the
    feedback loop (:meth:`ModelScheduler.observe`) and the service stats
    (:meth:`~repro.service.stats.ServiceStats.record_schedule`) consume
    this one definition, so they can never silently diverge.
    """
    by_index = {a.index: a for a in schedule.assignments}
    outcomes = []
    for i, result in enumerate(results):
        a = by_index.get(i)
        if a is None or a.executor is None or not result.ok \
                or result.failed_over:
            # failed_over: the image decoded on a different pool than
            # its scheduled lane — its wall time describes the rescue
            # host, not the lane that was priced.
            continue
        observed = result.wall_us
        if observed is None or observed <= 0:
            continue
        outcomes.append((a, observed))
    return outcomes


class ModelScheduler:
    """Cross-image batch scheduler: price, place, execute, adapt.

    Construct with a *policy* (``"model"`` = LPT, ``"roundrobin"`` =
    the baseline) and a lane set: *executors*, else a *platform*'s
    :func:`default_executors` device lanes (model-level pricing
    studies), else the one :func:`local_lane` priced as the GTX 560's
    SIMD CPU — what a scheduled local session runs.  Performance models
    come from :func:`~repro.core.perfmodel.fitted_model`, the
    process-wide table :class:`~repro.core.decoder.HeterogeneousDecoder`
    reads too.

    :class:`~repro.service.batch.BatchDecoder` calls :meth:`plan` with
    the whole images of an admission group and sends each placed image
    to its lane's pool.  :class:`~repro.service.session.DecodeSession`
    calls :meth:`observe` with the completed results, closing the
    feedback loop.
    """

    def __init__(self, policy: str = "model",
                 executors: Sequence[ExecutorLane] | None = None,
                 platform: Platform | None = None,
                 breakers: LaneBreakerBoard | None = None) -> None:
        """Build the lane set and the feedback state for one scheduler.

        *breakers* is the lane circuit-breaker board consulted at every
        :meth:`plan` and fed by every :meth:`observe`; the default board
        trips a lane after 3 consecutive infrastructure failures and
        probes it again after a 5 s cooldown.  Pass a configured
        :class:`LaneBreakerBoard` to tune (the CLI's
        ``--breaker-threshold`` does).
        """
        if policy not in POLICIES:
            raise ServiceError(
                f"unknown scheduling policy {policy!r} "
                f"(choose from {list(POLICIES)})")
        if executors is None:
            if platform is None:
                from ..evaluation import platforms
                executors = (local_lane(platforms.GTX560),)
            else:
                executors = default_executors(platform)
        if not executors:
            raise ServiceError("scheduler needs at least one executor lane")
        self.policy = policy
        self.executors = tuple(executors)
        self.feedback = ThroughputFeedback()
        self.breakers = breakers or LaneBreakerBoard()
        self._rr_cursor = 0

    # -- planning -------------------------------------------------------

    def price(self, blobs: Sequence[bytes]) -> list[ImagePricing]:
        """Read the headers of raw JPEG bytes and price them on this
        scheduler's lanes.

        The pricing half of :meth:`plan` without the placement — the
        public entry point for benchmarks and offline what-if studies
        (feed the result to :func:`schedule_lpt` /
        :func:`schedule_roundrobin` directly).  Unlike :meth:`plan`,
        header errors propagate: a what-if study over broken bytes is a
        caller bug, not traffic to route around.
        """
        infos = [(i, walk_header(b)) for i, b in enumerate(blobs)]
        return price_images(infos, self.executors, fitted_model)

    def plan(self, requests: "Sequence[ImageRequest]",
             infos: "Sequence[FrameInfo | None] | None" = None
             ) -> BatchSchedule:
        """Price and place one batch; returns the schedule.

        *infos* are the requests' headers where the caller has read
        them (:func:`~repro.service.tasks.read_header`, one each); a
        bare ``plan(requests)`` — benchmarks, offline studies — reads
        them itself.  An image without a header (``None``) gets an
        unassigned :class:`Assignment` (``executor=None``), so indices
        stay the group's: one the decoder fans out and keeps from
        placement, or one whose header does not read — left for the
        worker to fail with the precise decode error, the scheduler
        never swallows an error the decoder would report.
        """
        if infos is None:
            infos = [read_header(req) for req in requests]
        pricings = price_images(
            [(i, info) for i, info in enumerate(infos) if info is not None],
            self.executors, fitted_model,
            salvage={i for i, req in enumerate(requests) if req.salvage})
        limits = self.breakers.limits([l.name for l in self.executors])
        if self.policy == "model":
            schedule = schedule_lpt(pricings, self.executors, self.feedback,
                                    lane_limits=limits)
        else:
            schedule = schedule_roundrobin(pricings, self.executors,
                                           self.feedback,
                                           start=self._rr_cursor,
                                           lane_limits=limits)
            self._rr_cursor = schedule.rr_next_cursor
        schedule.assignments.extend(
            Assignment(index=i, executor=None)
            for i, info in enumerate(infos) if info is None)
        schedule.assignments.sort(key=lambda a: a.index)
        return schedule._replace(excluded=tuple(
            sorted(name for name, cap in limits.items() if cap == 0)))

    # -- observability --------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready view of the scheduler's adaptive state.

        Exposed through ``GET /stats`` on the HTTP front end: the
        policy, the lane set, and the per-lane EWMA correction scales
        with how many observations shaped them.
        """
        return {
            "policy": self.policy,
            "executors": [lane.name for lane in self.executors],
            "feedback": {
                "scales": self.feedback.scales(),
                "observations": self.feedback.observations,
            },
            "breakers": self.breakers.snapshot(),
        }

    # -- feedback -------------------------------------------------------

    def observe(self, schedule: BatchSchedule,
                results: "Sequence[ImageResult]",
                lane_failures: "dict[str, int] | None" = None) -> None:
        """Close the loop: refine lane scales from a batch's outcomes.

        Every successfully decoded lane-placed image contributes its
        observed vs. predicted time (see :func:`lane_outcomes` for the
        exact definition); fanned-out and unassigned images, failures
        and failed-over rescues teach the feedback nothing and are
        skipped.

        The breaker board additionally sees every lane-placed image's
        *infrastructure* outcome: completed decodes (ok or decode
        error) count as lane successes, ``infra_failure`` results count
        against the lane, and the trip edge resets the lane's feedback
        scale — a sick lane's EWMA history describes the failure, not
        the device it becomes after recovery.

        *lane_failures* (``BatchResult.lane_failures``) carries the
        per-dispatch infrastructure failures of lanes on other machines
        — failures a failover redispatch may have hidden from the
        results.  Such a lane is charged per dispatch, after every
        per-image success, so a lane whose images were all rescued by
        siblings still trips its breaker and cannot have the trip
        masked by a success recorded after it; every other lane
        answers per image, in order.  Failed-over results never credit
        their original lane.
        """
        for a, observed in lane_outcomes(schedule, results):
            self.feedback.observe(a.executor.name, a.predicted_us, observed)
        by_index = {a.index: a for a in schedule.assignments}
        per_dispatch = lane_failures or {}
        for i, result in enumerate(results):
            a = by_index.get(i)
            if a is None or a.executor is None or result.failed_over:
                continue
            lane = a.executor.name
            if result.ok or not result.infra_failure:
                self.breakers.record(lane, ok=True)
            elif lane not in per_dispatch \
                    and self.breakers.record(lane, ok=False):
                self.feedback.reset(lane)
        for lane, count in per_dispatch.items():
            for _ in range(count):
                if self.breakers.record(lane, ok=False):
                    self.feedback.reset(lane)
