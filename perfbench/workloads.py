"""The three benchmark workloads.

Each workload has these steps, which ``run.py`` drives:

* ``generate(seed, small)`` builds every input from the seed: the load
  generator runs here, never inside a timed pass.  ``small=True`` builds
  a tiny population for the untimed warm-up pass, which loads every
  lazily imported module before the first timed pass;
* ``build(inputs, workdir)`` constructs a fresh system (fleet, WALs,
  service).  ``generate`` plus ``build`` is one set-up, timed as
  ``setup_s``;
* ``run(inputs, system, ledger)`` is one timed pass: closed-loop, one
  producer, one call in flight; it returns the per-call latencies and
  the outputs;
* ``teardown(system)`` releases the system;
* ``check(inputs, outputs)`` compares the outputs with a reference
  (untimed) and lists every difference;
* ``same(a, b)`` compares the outputs of two passes over the same inputs.

Sizes are fixed per workload (not scaled with the run length), so every
pass of every run of one seed does the same work.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.kld import KLDDetector
from repro.core.online import TheftMonitoringService
from repro.integrity import IntegrityConfig
from repro.quarantine import FirewallPolicy, ReadingFirewall
from repro.resilience import ResilienceConfig
from repro.scaleout import plane
from repro.timeseries.seasonal import SLOTS_PER_WEEK

GOLDEN = Path(__file__).resolve().parent / "golden"


@dataclass
class PassResult:
    """What one timed pass measured and produced."""

    wall_s: float = 0.0
    #: Latencies of calls that did not close a week (or, for
    #: paper-eval, of one consumer's full evaluation).
    call_s: list[float] = field(default_factory=list)
    #: Latencies of the calls that produced verdicts: week-closing
    #: ingest calls, or the whole table reproduction for paper-eval.
    verdict_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Units of work completed: readings accepted into the store, or
    #: consumers evaluated.
    work: int = 0
    outputs: object = None
    #: Per-layer figures the ledger cannot see from spans.
    extra: dict = field(default_factory=dict)


def _detector() -> KLDDetector:
    return KLDDetector(significance=0.05)


def _stored_readings(series: dict) -> int:
    """Readings held in a store's series (gap markers excluded)."""
    return sum(int(np.count_nonzero(~np.isnan(np.asarray(s, dtype=float))))
               for s in series.values())


def _series_mismatches(got: dict, want: dict) -> list[str]:
    """Consumers whose stored reading series differ (NaN == NaN)."""
    out = [f"series missing for {cid}" for cid in sorted(set(want) - set(got))]
    out += [f"unexpected series for {cid}"
            for cid in sorted(set(got) - set(want))]
    for cid in sorted(set(got) & set(want)):
        if not np.array_equal(np.asarray(got[cid], dtype=float),
                              np.asarray(want[cid], dtype=float),
                              equal_nan=True):
            out.append(f"series differ for {cid}")
    return out


def _verdict_mismatches(got, want) -> list[str]:
    """Consumer-week verdict differences, keyed like the fleet plane's
    alert key, plus any other difference in the weekly reports."""
    def keys(reports):
        return {(r.week_index, *plane._alert_key(a))
                for r in reports for a in r.alerts}

    out = [f"alert differs: {key}"
           for key in sorted(keys(got) ^ keys(want), key=repr)]
    got_sig = [plane.report_signature(r) for r in got]
    want_sig = [plane.report_signature(r) for r in want]
    if not out and got_sig != want_sig:
        out.append("weekly reports differ outside the alerts")
    return out


# ----------------------------------------------------------------------
# fleet-ingest
# ----------------------------------------------------------------------


class FleetIngest:
    """Durable two-shard fleet ingesting one week plus a few cycles."""

    name = "fleet-ingest"
    METERS = 1000
    CYCLES = SLOTS_PER_WEEK + 4
    SHARDS = 2
    MALFORMED_RATE = 0.005
    SMALL = 50

    @staticmethod
    def _service(consumers):
        return TheftMonitoringService(
            detector_factory=_detector,
            min_training_weeks=2,
            resilience=ResilienceConfig(),
            population=consumers,
            firewall=ReadingFirewall(FirewallPolicy()),
            integrity=IntegrityConfig(),
        )

    def generate(self, seed: int, small: bool = False) -> dict:
        from repro.data.stream import StreamedCERPopulation
        from repro.data.synthetic import SyntheticCERConfig

        population = StreamedCERPopulation(
            SyntheticCERConfig(
                n_consumers=self.SMALL if small else self.METERS,
                n_weeks=2,
                seed=seed,
            )
        )
        ids = population.consumer_ids
        injected = {"non_finite": 0, "negative": 0, "out_of_range": 0}
        cycles = []
        for cycle in range(self.CYCLES):
            values = population.values_at(cycle)
            rng = np.random.default_rng((seed, 0xBAD, cycle))
            bad = np.flatnonzero(rng.random(len(ids)) < self.MALFORMED_RATE)
            kinds = rng.integers(0, 3, size=bad.size)
            values[bad[kinds == 0]] = np.nan
            values[bad[kinds == 1]] = -1.0 - values[bad[kinds == 1]]
            values[bad[kinds == 2]] = 5000.0
            for kind, reason in enumerate(injected):
                injected[reason] += int(np.count_nonzero(kinds == kind))
            cycles.append(dict(zip(ids, values.tolist())))
        return {"ids": ids, "cycles": cycles, "injected": injected}

    def build(self, inputs: dict, workdir: str):
        from repro.scaleout import ElasticFleet

        return ElasticFleet(
            inputs["ids"],
            workdir,
            self._service,
            _detector,
            n_shards=self.SHARDS,
            sync_every_cycles=1,
        )

    def run(self, inputs: dict, fleet, ledger) -> PassResult:
        result = PassResult()
        started = time.perf_counter()
        for index, cycle in enumerate(inputs["cycles"]):
            if ledger is not None:
                ledger.trace_id = index
            result.attempted += 1
            t0 = time.perf_counter()
            try:
                reports = fleet.ingest_cycle(cycle)
            except Exception:  # noqa: BLE001 - counted, the run goes on
                result.failed += 1
                continue
            elapsed = time.perf_counter() - t0
            closed = any(r is not None for r in reports.values())
            (result.verdict_s if closed else result.call_s).append(elapsed)
        result.wall_s = time.perf_counter() - started
        # Read every output before close(): close drops the monitors.
        quarantine: dict[str, int] = {}
        for service in fleet.services().values():
            for reason, n in service.firewall.store.counts_by_reason().items():
                quarantine[reason] = quarantine.get(reason, 0) + n
        sizes = [len(worker.consumers) for worker in fleet.workers()]
        result.extra["scaleout.shard_skew"] = max(sizes) / np.mean(sizes)
        result.outputs = {
            "series": fleet.reading_series(),
            "quarantine": quarantine,
            "reports": plane.merge_weekly_reports(fleet.weekly_reports()),
        }
        result.work = _stored_readings(result.outputs["series"])
        return result

    def teardown(self, fleet) -> None:
        fleet.close()

    def check(self, inputs: dict, outputs: dict) -> list[str]:
        """Reference: one in-order service fed the same cycles."""
        reference = self._service(inputs["ids"])
        for cycle in inputs["cycles"]:
            reference.ingest_cycle(cycle)
        want_quarantine = reference.firewall.store.counts_by_reason()
        out = _series_mismatches(
            outputs["series"],
            {cid: list(s) for cid, s in reference.store._series.items()},
        )
        out += _verdict_mismatches(outputs["reports"], reference.reports)
        for name, counts in (("reference", want_quarantine),
                             ("generator", inputs["injected"])):
            if outputs["quarantine"] != counts:
                out.append(f"quarantine counts {outputs['quarantine']} "
                           f"!= {name} {counts}")
        return out

    def same(self, a: dict, b: dict) -> list[str]:
        out = _series_mismatches(a["series"], b["series"])
        out += _verdict_mismatches(a["reports"], b["reports"])
        if a["quarantine"] != b["quarantine"]:
            out.append("quarantine counts differ between passes")
        return out


# ----------------------------------------------------------------------
# scrambled-weeks
# ----------------------------------------------------------------------


class ScrambledWeeks:
    """One event-time service behind a scrambling backhaul, with a WAL."""

    name = "scrambled-weeks"
    METERS = 120
    WEEKS = 7
    MIN_TRAINING_WEEKS = 2
    LATENESS = 48
    GRACE_WEEKS = 1
    #: Training waits for finalized weeks, so the first model is trained
    #: at week 2's close and week 3 is the first scored week.
    FIRST_SCORED_WEEK = MIN_TRAINING_WEEKS + GRACE_WEEKS
    #: Theft starts once a model is scoring.
    THEFT_WEEK = FIRST_SCORED_WEEK
    THEFT_SHARE = 0.05
    THEFT_FACTOR = 0.3
    SMALL = 20

    def _service(self, ids):
        from repro.eventtime import EventTimeConfig

        return TheftMonitoringService(
            detector_factory=_detector,
            min_training_weeks=self.MIN_TRAINING_WEEKS,
            retrain_every_weeks=1,
            # Breaker trip order depends on delivery order; a high
            # threshold keeps scrambled and ordered runs comparable.
            resilience=ResilienceConfig(failure_threshold=10**9),
            population=ids,
            firewall=ReadingFirewall(FirewallPolicy()),
            integrity=IntegrityConfig(),
            eventtime=EventTimeConfig(
                lateness_slots=self.LATENESS, grace_weeks=self.GRACE_WEEKS
            ),
        )

    def generate(self, seed: int, small: bool = False) -> dict:
        from repro.data.stream import StreamedCERPopulation
        from repro.data.synthetic import (
            DeliveryLatencyConfig,
            SyntheticCERConfig,
            generate_delivery_trace,
        )

        population = StreamedCERPopulation(
            SyntheticCERConfig(
                n_consumers=self.SMALL if small else self.METERS,
                n_weeks=self.WEEKS,
                seed=seed,
            )
        )
        ids = population.consumer_ids
        n_slots = self.WEEKS * SLOTS_PER_WEEK
        values = np.stack([population.values_at(t) for t in range(n_slots)])
        rng = np.random.default_rng((seed, 0x7EF7))
        thieves = rng.choice(
            len(ids), size=max(1, round(self.THEFT_SHARE * len(ids))),
            replace=False,
        )
        values[self.THEFT_WEEK * SLOTS_PER_WEEK:, thieves] *= self.THEFT_FACTOR
        # The repo's modelled backhaul, with delays capped so that every
        # reading still reaches its week before the week finalises.
        batches = generate_delivery_trace(
            {cid: values[:, j] for j, cid in enumerate(ids)},
            DeliveryLatencyConfig(
                max_delay_slots=self.LATENESS
                + self.GRACE_WEEKS * SLOTS_PER_WEEK,
                seed=seed,
            ),
        )
        return {"ids": ids, "rows": [dict(zip(ids, row))
                                     for row in values.tolist()],
                "batches": batches}

    def build(self, inputs: dict, workdir: str):
        from repro.durability.wal import WriteAheadLog
        from repro.eventtime import EventTimeIngestor

        return EventTimeIngestor(self._service(inputs["ids"]),
                                 wal=WriteAheadLog(workdir))

    def run(self, inputs: dict, ingestor, ledger) -> PassResult:
        result = PassResult()
        peak = 0
        calls = [(i, ingestor.deliver, batch)
                 for i, batch in enumerate(inputs["batches"])]
        calls.append((len(calls), lambda _: ingestor.finish(), None))
        started = time.perf_counter()
        for index, call, batch in calls:
            if ledger is not None:
                ledger.trace_id = index
            result.attempted += 1
            t0 = time.perf_counter()
            try:
                outcome = call(batch)
            except Exception:  # noqa: BLE001 - counted, the run goes on
                result.failed += 1
                continue
            elapsed = time.perf_counter() - t0
            if not outcome.reports:
                result.call_s.append(elapsed)
            elif outcome.reports[-1].week_index >= self.FIRST_SCORED_WEEK:
                # Closes of the history weeks publish no verdicts (no
                # model yet), so only scored weeks are verdict samples.
                result.verdict_s.append(elapsed)
            peak = max(peak, ingestor.buffer.pending_readings)
        result.wall_s = time.perf_counter() - started
        service = ingestor.service
        result.extra["eventtime.peak_buffered_readings"] = peak
        result.outputs = {
            "reports": list(service.reports),
            "series": {cid: list(s) for cid, s in service.store._series.items()},
            "too_late": service.firewall.store.counts_by_reason().get(
                "too_late", 0
            ),
        }
        # Duplicate deliveries overwrite their slot, so they add nothing.
        result.work = _stored_readings(result.outputs["series"])
        return result

    def teardown(self, ingestor) -> None:
        ingestor.wal.close()

    def check(self, inputs: dict, outputs: dict) -> list[str]:
        """Reference: the same readings ingested in slot order."""
        reference = self._service(inputs["ids"])
        for row in inputs["rows"]:
            reference.ingest_cycle(row)
        out = _verdict_mismatches(outputs["reports"], reference.reports)
        if not out and outputs["reports"] != reference.reports:
            out.append("weekly reports are not identical to the ordered run")
        out += _series_mismatches(
            outputs["series"],
            {cid: list(s) for cid, s in reference.store._series.items()},
        )
        if outputs["too_late"]:
            out.append(f"{outputs['too_late']} readings quarantined too_late")
        if len(outputs["reports"]) != self.WEEKS:
            out.append(f"{len(outputs['reports'])} weeks closed, "
                       f"expected {self.WEEKS}")
        return out

    def same(self, a: dict, b: dict) -> list[str]:
        out = _verdict_mismatches(a["reports"], b["reports"])
        return out + _series_mismatches(a["series"], b["series"])


# ----------------------------------------------------------------------
# paper-eval
# ----------------------------------------------------------------------

#: The paper's Table I, cell for cell: despite balance check, flat rate,
#: TOU, RTP, requires ADR.
PAPER_TABLE_I = {
    "1A": "NYYYN", "2A": "NYYYN", "3A": "NNYYN", "1B": "YYYYN",
    "2B": "YYYYN", "3B": "YNYYN", "4B": "YNNYY",
}


def results_digest(results) -> str:
    """SHA-256 over every consumer's evaluation outcome, floats exact."""
    digest = hashlib.sha256()
    for cid in sorted(results.consumers):
        evaluation = results.consumers[cid]
        digest.update(repr((
            cid,
            sorted((k, bool(v)) for k, v in evaluation.false_positive.items()),
            sorted((k, bool(v)) for k, v in evaluation.detected_all.items()),
            sorted((k, float(g.stolen_kwh), float(g.profit_usd))
                   for k, g in evaluation.worst_gain.items()),
        )).encode())
    return digest.hexdigest()


class PaperEval:
    """The serial Section VIII evaluation behind Tables I-III."""

    name = "paper-eval"
    #: Enough consumers that one pass averages out per-consumer cost
    #: differences between seeds.
    CONSUMERS = 20
    WEEKS = 74
    VECTORS = 50
    SMALL = 2
    #: Digests of the results at the commit that recorded them, per seed
    #: (``golden.py`` rewrites the file).
    GOLDEN_FILE = GOLDEN / "paper-eval.json"

    def sizes(self) -> dict:
        return {"consumers": self.CONSUMERS, "weeks": self.WEEKS,
                "vectors": self.VECTORS}

    def generate(self, seed: int, small: bool = False) -> dict:
        from repro.data.synthetic import (
            SyntheticCERConfig,
            generate_cer_like_dataset,
        )
        from repro.evaluation.config import EvaluationConfig

        dataset = generate_cer_like_dataset(
            SyntheticCERConfig(
                n_consumers=self.SMALL if small else self.CONSUMERS,
                n_weeks=self.WEEKS,
                seed=seed,
            )
        )
        return {"dataset": dataset, "seed": seed,
                "config": EvaluationConfig(n_vectors=self.VECTORS, seed=seed)}

    def build(self, inputs: dict, workdir: str):
        return None

    def run(self, inputs: dict, system, ledger) -> PassResult:
        from repro.attacks.classes import TABLE_I
        from repro.evaluation.experiment import run_evaluation
        from repro.evaluation.tables import table2, table3
        from repro.observability.metrics import MetricsRegistry

        result = PassResult()
        marks = []
        started = time.perf_counter()
        try:
            results = run_evaluation(
                inputs["dataset"],
                inputs["config"],
                progress=lambda cid: marks.append(time.perf_counter()),
                metrics=MetricsRegistry(),
            )
            tables = (table2(results), table3(results))
        except Exception:  # noqa: BLE001 - counted as failed
            results, tables = None, None
        result.wall_s = time.perf_counter() - started
        result.attempted = len(inputs["dataset"].consumers())
        result.work = len(marks)
        result.failed = result.attempted - len(marks)
        result.call_s = list(np.diff([started, *marks]))
        result.verdict_s = [result.wall_s]
        result.outputs = {
            "results": results,
            "tables": tables,
            "table1": {
                row.attack_class.value: "".join(
                    "Y" if flag else "N"
                    for flag in (row.despite_balance_check, row.flat_rate,
                                 row.tou, row.rtp, row.requires_adr)
                )
                for row in TABLE_I
            },
        }
        return result

    def teardown(self, system) -> None:
        pass

    @staticmethod
    def orderings(tables) -> list[str]:
        """The Table II/III orderings of KLD vs ARIMA vs Integrated ARIMA
        that the paper reports."""
        from repro.evaluation.config import (
            ALL_COLUMNS,
            COLUMN_1B,
            DETECTOR_ARIMA,
            DETECTOR_INTEGRATED,
            DETECTOR_KLD_10,
            DETECTOR_KLD_5,
        )

        rows2, rows3 = tables
        t2 = {row.detector: row.values for row in rows2}
        t3 = {row.detector: row.values for row in rows3}
        out = []
        for column in ALL_COLUMNS:
            if t2[DETECTOR_ARIMA][column] != 0.0:
                out.append(f"Table II: ARIMA detects {column}")
            for kld in (DETECTOR_KLD_5, DETECTOR_KLD_10):
                if not t2[kld][column] > t2[DETECTOR_INTEGRATED][column]:
                    out.append(f"Table II: {kld} <= Integrated ARIMA "
                               f"on {column}")
        stolen = {d: t3[d][COLUMN_1B].stolen_kwh for d in t3}
        if not (stolen[DETECTOR_ARIMA] > stolen[DETECTOR_INTEGRATED]
                > min(stolen[DETECTOR_KLD_5], stolen[DETECTOR_KLD_10])):
            out.append(f"Table III 1B ordering broken: {stolen}")
        return out

    def check(self, inputs: dict, outputs: dict) -> list[str]:
        """Reference: Table I as published, the paper's Table II/III
        orderings, and the recorded digest of every consumer's results."""
        out = [f"Table I row {key}: {got} != {PAPER_TABLE_I[key]}"
               for key, got in outputs["table1"].items()
               if got != PAPER_TABLE_I.get(key)]
        if outputs["results"] is None:
            return out + ["the evaluation raised"]
        out += self.orderings(outputs["tables"])
        golden = json.loads(self.GOLDEN_FILE.read_text())
        if golden["sizes"] != self.sizes():
            return out + [f"{self.GOLDEN_FILE.name} records sizes "
                          f"{golden['sizes']}, not {self.sizes()}"]
        want = golden["digests"].get(str(inputs["seed"]))
        if want is None:
            print(f"# no recorded digest for seed {inputs['seed']}; "
                  "checked Table I and the orderings only")
        elif results_digest(outputs["results"]) != want:
            out.append("evaluation results differ from the recorded digest")
        return out

    def same(self, a: dict, b: dict) -> list[str]:
        if a["results"] is None or b["results"] is None:
            return ["the evaluation raised"]
        if a["results"].consumers != b["results"].consumers:
            return ["evaluation results differ between passes"]
        return []


WORKLOADS = {w.name: w for w in (FleetIngest(), ScrambledWeeks(), PaperEval())}
