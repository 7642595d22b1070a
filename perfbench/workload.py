"""The benchmark's workloads: inputs made from the seed, the operations timed
on them, the rounds that repeat those operations, and the metrics.

Every round runs the same eight operations on the same inputs: backbone
fine-tune batches, controller-training batches, full decode, routed decode,
the probe, prefill, and the `oracle` and `chi2` stages. A workload sets the
sizes; each puts its own families at full size and runs the others at the
small `LIGHT` size, so every run reports every metric.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from depthlab import autodiff, cli, controller, experiment, metrics, oracle, tokenizer, training
from depthlab import model as model_mod
from depthlab.controller import ControllerBank, InputMode, controlled_layers, init_controller_params
from depthlab.corpus import CorpusSpec, gen_corpus, tokenize_example
from depthlab.model import DecoderModel, KVCache, ModelConfig, init_params
from depthlab.probe import probe as probe_similarity
from depthlab.routing import RoutePlan, full_mask

import checks
from tracing import Tracer

MODEL = ModelConfig()  # the pipeline's default: L=8, d=64, 4 heads, max_context 256
PIPELINE = experiment.ExperimentConfig.load(None)
LR = PIPELINE.getfloat("train", "learning_rate")
CTRL_LR = PIPELINE.getfloat("controllers", "controller_learning_rate")
ALPHA = 4.0  # from the default alpha grid
PROMPT_LEN = 16  # decode and probe prompts: corpus prompts of (nearest) this many tokens
ROUTE_COST = MODEL.num_layers // 2  # ULS, EE and RLS all execute 4 of 8 layers
GATE_BIAS = 0.0  # untrained gates at zero bias skip about half the time
ORACLE_LAYERS = 24  # prediction sets of an L=24 model, one per ULS cost
SUFFICIENT_P = 0.2  # d_i = 1 + Binomial(23, 0.2): mean 5.6 layers, 23.3% of 24
BUDGETS = PIPELINE.budget_grid()
BIN_WIDTH = PIPELINE.getint("oracle", "bin_width")
NUM_BINS = PIPELINE.getint("oracle", "num_bins")


@dataclass(frozen=True)
class Sizes:
    train_seqs: int  # sequences in the round's fine-tune batch (one AdamW step)
    ctrl_seqs: int  # sequences per input mode in the controller batches
    decode_len: int  # prompt plus generated tokens of every decode
    probe_new: int  # teacher-forced positions per strategy
    prefill_len: int
    oracle_n: int  # sequences in the prediction sets


LIGHT = Sizes(train_seqs=4, ctrl_seqs=2, decode_len=40, probe_new=16, prefill_len=48, oracle_n=64)
# Tape training and the oracle share a workload: with two workloads a run can
# last 50 s, and decode_routed's 4-second rounds need that many to give a
# median that repeats from run to run on a shared machine.
WORKLOADS = {
    "train_oracle": replace(LIGHT, train_seqs=8, ctrl_seqs=4, oracle_n=300),
    "decode_routed": replace(LIGHT, decode_len=240, probe_new=64, prefill_len=200),
}

# (metric, unit); rates are medians over rounds, `_s` metrics medians of
# per-call wall time.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("train_tok_per_s", "tok/s"),
    ("ctrl_tok_per_s", "tok/s"),
    ("decode_full_tok_per_s", "tok/s"),
    ("decode_skip_tok_per_s", "tok/s"),
    ("replay_tok_per_s", "tok/s"),
    ("prefill_tok_per_s", "tok/s"),
    ("oracle_s", "s"),
    ("chi2_s", "s"),
]

CALL_TIMES = ("oracle_s", "chi2_s")

# (metric, unit, span or count, statistic); all per traced round.
PER_LAYER = [
    ("autodiff.build_s", "s", "autodiff.build", "busy"),
    ("autodiff.backward_s", "s", "autodiff.backward", "busy"),
    ("autodiff.nodes", "count", "autodiff.backward", "nodes_per_call"),
    ("training.adamw_s", "s", "training.adamw", "busy"),
    ("training.teacher_s", "s", "training.teacher", "busy"),
    ("controller.loss_s", "s", "controller.loss", "busy"),
    ("model.step_s", "s", "model.step", "busy"),
    ("model.step_self_s", "s", "model.step", "self"),
    ("model.step_calls", "count", "model.step", "calls"),
    ("model.kv_read_s", "s", "model.kv_read", "busy"),
    ("model.kv_rows_read", "count", "model.kv_rows_read", "count"),
    ("model.kv_fills", "count", "model.kv_fill", "calls"),
    ("model.layers_executed", "count", "model.layers_executed", "count"),
    ("model.layers_skipped", "count", "model.layers_skipped", "count"),
    ("routing.realize_s", "s", "routing.realize", "busy"),
    ("controller.gate_s", "s", "controller.gate", "busy"),
    ("controller.gate_calls", "count", "controller.gate", "calls"),
    ("probe.replay_s", "s", "probe.replay", "busy"),
    ("probe.replay_self_s", "s", "probe.replay", "self"),
    ("metrics.cosine_s", "s", "metrics.cosine", "busy"),
    ("metrics.cosine_calls", "count", "metrics.cosine", "calls"),
    ("oracle.parse_s", "s", "oracle.parse", "busy"),
    ("oracle.solve_exact_s", "s", "oracle.solve_exact", "busy"),
    ("oracle.solve_exact_calls", "count", "oracle.solve_exact", "calls"),
    ("oracle.greedy_s", "s", "oracle.greedy", "busy"),
    ("oracle.chi2_test_s", "s", "oracle.chi2_test", "busy"),
    ("experiment.manifest_s", "s", "experiment.manifest", "busy"),
    ("oracle.dp_cells", "cells.computed", "oracle.dp_cells", "count"),
    ("oracle.choice_table_mb", "MB.computed", "oracle.choice_table_mb", "max"),
    ("trace.overhead_pct", "%", "", "overhead"),
]


def _count_nodes(counts, args, _result):
    counts["autodiff.nodes"] += len(args[0].nodes)


def _count_layers(counts, _args, result):
    executed = sum(result.bits)
    counts["model.layers_executed"] += executed
    counts["model.layers_skipped"] += len(result.bits) - executed


def _count_kv_rows(counts, args, _result):
    counts["model.kv_rows_read"] += args[2] + 1  # kv_matrices(layer, upto) stacks rows 0..upto


def _count_dp(counts: dict, args: tuple, _result) -> None:
    """Cells and choice-table size of one solve_exact call, computed from the
    matrix and budget the way the DP sizes them (n rows x cap+1 costs x k)."""
    matrix, beta = args[0], args[1]
    g = math.gcd(*matrix.costs)
    cap = min(math.floor(beta * matrix.n) // g, matrix.n * (max(matrix.costs) // g))
    counts["oracle.dp_cells"] += matrix.n * (cap + 1) * matrix.k
    table_mb = matrix.n * (cap + 1) / 2**20  # uint8 choice table
    counts["oracle.choice_table_mb"] = max(counts["oracle.choice_table_mb"], table_mb)


TRACE_TARGETS = [
    ("autodiff.build", model_mod, "build_graph_forward", None),
    ("autodiff.backward", autodiff, "backpropagate", _count_nodes),
    ("training.adamw", training.AdamW, "step", None),
    ("training.teacher", DecoderModel, "forward_hidden", None),
    ("controller.loss", controller, "build_controller_loss", None),
    ("model.step", DecoderModel, "step", _count_layers),
    ("model.kv_read", KVCache, "kv_matrices", _count_kv_rows),
    ("model.kv_fill", KVCache, "fill", None),
    ("routing.realize", RoutePlan, "realize", None),
    ("controller.gate", ControllerBank, "logits_for", None),
    ("probe.replay", DecoderModel, "replay_tokens", None),
    ("metrics.cosine", metrics, "cosine", None),
    ("oracle.parse", oracle, "score_matrix_from_prediction_sets", None),
    ("oracle.solve_exact", oracle, "solve_exact", _count_dp),
    ("oracle.greedy", oracle, "solve_greedy", None),
    ("oracle.chi2_test", oracle, "chi_square_homogeneity", None),
    ("experiment.manifest", experiment, "write_stage_manifest", None),
]


def planted_instance(rng: np.random.Generator, n: int):
    """Scores for n sequences x costs 1..24. Sequence i has a sufficient cost
    d_i: from d_i up its score is top_i/64, exact in floating point; below it
    the score is floor(top_i * c / d_i)/64, strictly lower. Label lengths
    spread over the chi2 stage's seven 5-token bins."""
    costs = np.arange(1, ORACLE_LAYERS + 1)
    sufficient = 1 + rng.binomial(ORACLE_LAYERS - 1, SUFFICIENT_P, size=n)
    top = rng.integers(32, 65, size=n)
    label_len = rng.integers(1, BIN_WIDTH * NUM_BINS + 1, size=n)
    partial = (top[:, None] * costs[None, :]) // sufficient[:, None]
    scores = np.where(costs[None, :] >= sufficient[:, None], top[:, None], partial) / 64.0
    return costs.tolist(), scores, sufficient, label_len


class Bench:
    """Inputs and state for one run; every input derives from the seed."""

    def __init__(self, sizes: Sizes, seed: int, out: Path):
        self.sizes, self.seed, self.out = sizes, seed, out
        L = MODEL.num_layers
        examples = gen_corpus(CorpusSpec(), seed)
        half = len(examples) // 2
        s = sizes
        self.train_examples = spread_by_length(examples[:half], s.train_seqs)
        self.ctrl_examples = spread_by_length(examples[half:], s.ctrl_seqs)
        prompts = sorted(
            (tokenizer.encode(ex.prompt, add_bos=True) for ex in examples),
            key=lambda ids: abs(len(ids) - PROMPT_LEN),
        )
        self.decode_prompt, self.probe_prompt = prompts[0], prompts[1]
        text = "\n".join(f"{ex.prompt} => {ex.label}" for ex in examples)
        self.prefill_tokens = tokenizer.encode(text, add_bos=True)[: s.prefill_len]

        tcfg = training.TrainConfig(learning_rate=LR, controller_learning_rate=CTRL_LR)
        self.train_model = DecoderModel(MODEL, init_params(MODEL, seed))
        self.train_opt = training.AdamW(sorted(self.train_model.params), tcfg)
        self.ctrl_model = DecoderModel(MODEL, init_params(MODEL, seed))
        self.teacher = DecoderModel(MODEL, dict(self.ctrl_model.params))
        self.ctrl_opt = training.AdamW(sorted(self.ctrl_model.params), tcfg)
        self.controlled = controlled_layers(MODEL)
        self.banks = [
            ControllerBank(MODEL, init_controller_params(MODEL, self.controlled, seed=seed + 1000 * i), input_mode=mode)
            for i, mode in enumerate((InputMode.HIDDEN_STATE, InputMode.FIXED_ONES))
        ]
        self.bank_opts = [training.AdamW(sorted(b.params), tcfg) for b in self.banks]

        self.decode_model = DecoderModel(MODEL, init_params(MODEL, seed))
        self.plans = [
            RoutePlan.uniform_skip(L, ROUTE_COST),
            RoutePlan.early_exit(L, ROUTE_COST),
            RoutePlan.random_skip(L, ROUTE_COST),
        ]
        self.gate_bank = ControllerBank(
            MODEL, init_controller_params(MODEL, self.controlled, seed=seed + 7, execute_bias=GATE_BIAS)
        )
        self.decode_seed = int(np.random.default_rng((seed, 5)).integers(2**31))
        self.strategies = [
            RoutePlan.early_exit(L, L),
            RoutePlan.uniform_skip(L, L),
            RoutePlan.random_skip(L, L),
            RoutePlan.random_skip(L, L, enforce_first=False),
        ]

        self.costs, self.scores, self.sufficient, label_len = planted_instance(
            np.random.default_rng((seed, 9)), s.oracle_n
        )
        self.label_len = {f"seq-{i:05d}": int(n) for i, n in enumerate(label_len)}
        pred = out / "predictions"
        pred.mkdir(parents=True, exist_ok=True)
        for j, cost in enumerate(self.costs):
            with open(pred / f"uls_c{cost}.jsonl", "w") as fh:
                for i, seq_id in enumerate(self.label_len):
                    rec = {"id": seq_id, "cost": cost, "text": "", "label": "",
                           "label_len": self.label_len[seq_id], "rouge_l": float(self.scores[i, j])}
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")

        self.reference: dict[str, object] = {}  # round-0 outputs later rounds must repeat

    def warm_up(self) -> None:
        training.sequence_loss_and_grads(self.train_model, self.train_examples[0])

    # -- operations: each returns (work, seconds), timing only program calls --

    def train(self, capture: dict | None):
        model = self.train_model
        before = dict(model.params)  # AdamW replaces arrays, so a shallow copy is a snapshot
        start = time.perf_counter()
        acc = {name: np.zeros_like(value) for name, value in model.params.items()}
        losses, first = [], None
        for ex in self.train_examples:
            loss, grads = training.sequence_loss_and_grads(model, ex)
            losses.append(loss)
            if first is None:
                first = grads
            for name, grad in grads.items():
                acc[name] += grad
        for name in acc:
            acc[name] *= 1.0 / len(self.train_examples)
        self.train_opt.step(model.params, acc, LR)
        seconds = time.perf_counter() - start
        if not all(math.isfinite(x) for x in losses):
            raise checks.CheckError(f"non-finite training loss {losses}")
        if capture is not None:
            capture.update(params=before, losses=losses, grads=first)
        tokens = sum(len(tokenize_example(ex).full_ids) - 1 for ex in self.train_examples)
        return tokens, seconds

    def ctrl(self, capture: dict | None):
        model = self.ctrl_model
        records = []
        seconds = 0.0
        for mode_idx, (bank, bank_opt) in enumerate(zip(self.banks, self.bank_opts)):
            before = dict(model.params)
            gumbel_rng = np.random.default_rng((self.seed, 3, mode_idx))
            start = time.perf_counter()
            names = sorted(bank.params) + sorted(model.params)
            acc: dict[str, np.ndarray] = {}
            for ex in self.ctrl_examples:
                g, loss, leaves, realized, _ = training.build_controller_sequence_graph(
                    model, bank, self.teacher, ex, ALPHA, gumbel_rng, freeze_backbone=False
                )
                autodiff.backpropagate(g, loss)
                for name in names:
                    acc[name] = leaves[name].grad if name not in acc else acc[name] + leaves[name].grad
                records.append((before, ex, loss.item(), realized))
            grads = {name: grad / len(self.ctrl_examples) for name, grad in acc.items()}
            bank_opt.step(bank.params, grads, CTRL_LR)
            self.ctrl_opt.step(model.params, grads, LR)
            seconds += time.perf_counter() - start
        if not all(math.isfinite(r[2]) for r in records):
            raise checks.CheckError("non-finite controller loss")
        if capture is not None:
            capture["records"] = records
        tokens = len(self.banks) * sum(len(tokenize_example(ex).full_ids) - 1 for ex in self.ctrl_examples)
        return tokens, seconds

    def _generate(self, plan=None, gated=False):
        kwargs = {"gate_fn_factory": self.gate_bank.gate_fn} if gated else {"plan": plan}
        prompt = self.decode_prompt
        return self.decode_model.generate(
            prompt, max_new=self.sizes.decode_len - len(prompt), rng_seed=self.decode_seed, eos_id=None, **kwargs
        )

    def _repeat(self, key: str, results) -> None:
        """Later rounds decode the same inputs and must emit the same tokens."""
        tokens = [r.generated_ids for r in results]
        if self.reference.setdefault(key, tokens) != tokens:
            raise checks.CheckError(f"{key}: a later round generated different tokens")

    def decode_full(self, capture: dict | None):
        full = RoutePlan.full(MODEL.num_layers)
        start = time.perf_counter()
        result = self._generate(plan=full)
        seconds = time.perf_counter() - start
        self._repeat("decode_full", [result])
        if capture is not None:
            capture["results"] = [(result, MODEL.num_layers)]
        return len(result.generated_ids), seconds

    def decode_skip(self, capture: dict | None):
        start = time.perf_counter()
        results = [(self._generate(plan=plan), plan.cost or plan.exit_layer) for plan in self.plans]
        results.append((self._generate(gated=True), None))
        seconds = time.perf_counter() - start
        self._repeat("decode_skip", [r for r, _ in results])
        if capture is not None:
            capture["results"] = results
        return sum(len(r.generated_ids) for r, _ in results), seconds

    def probe(self, capture: dict | None):
        s = self.sizes
        start = time.perf_counter()
        report = probe_similarity(
            self.decode_model, [self.probe_prompt], self.strategies, [ROUTE_COST],
            seed=self.seed, max_new=s.probe_new, stop_at_eos=False,
        )
        seconds = time.perf_counter() - start
        summary = [(e.strategy, e.final_mean, e.layerwise_mean, e.n) for e in report.entries]
        if self.reference.setdefault("probe", summary) != summary:
            raise checks.CheckError("probe: a later round gave different similarities")
        if capture is not None:
            capture["report"] = report
        return len(self.strategies) * s.probe_new, seconds

    def prefill(self, capture: dict | None):
        tokens = self.prefill_tokens
        start = time.perf_counter()
        cache, trace = self.decode_model.new_state()
        result = self.decode_model.routed_forward(tokens, full_mask(MODEL.num_layers), cache, trace)
        seconds = time.perf_counter() - start
        if capture is not None:
            capture.update(trace=trace, result=result)
        return len(tokens), seconds

    def _stage(self, name: str):
        start = time.perf_counter()
        code = cli.main([name, "--out", str(self.out)])
        seconds = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"depthlab {name} exited with {code}")
        return 1, seconds

    def oracle(self, capture: dict | None):
        return self._stage("oracle")

    def chi2(self, capture: dict | None):
        return self._stage("chi2")

    def operations(self):
        """(metric, operation) in round order; work is tokens for rates and
        one call for the `_s` metrics."""
        return [
            ("train_tok_per_s", self.train),
            ("ctrl_tok_per_s", self.ctrl),
            ("decode_full_tok_per_s", self.decode_full),
            ("decode_skip_tok_per_s", self.decode_skip),
            ("replay_tok_per_s", self.probe),
            ("prefill_tok_per_s", self.prefill),
            ("oracle_s", self.oracle),
            ("chi2_s", self.chi2),
        ]

    # -- checks on the outputs of round 0 --------------------------------------

    def check(self, captured: dict) -> None:
        rng = np.random.default_rng((self.seed, 13))
        train = captured["train_tok_per_s"]
        for ex, loss in zip(self.train_examples, train["losses"]):
            checks.check_sequence_loss(MODEL, train["params"], ex, loss)
        ex = self.train_examples[0]
        coords = checks.gradient_coordinates(MODEL, ex, rng, 6)
        checks.check_gradients(MODEL, train["params"], ex, train["grads"], coords)

        for before, ex, loss, realized in captured["ctrl_tok_per_s"]["records"]:
            checks.check_controller_loss(
                MODEL, before, self.teacher.params, ex, self.controlled, ALPHA, realized, loss
            )

        always_on = [l for l in range(1, MODEL.num_layers + 1) if l not in self.gate_bank.layers]
        for key in ("decode_full_tok_per_s", "decode_skip_tok_per_s"):
            for result, cost in captured[key]["results"]:
                checks.check_generation(
                    self.decode_model, result, plan_cost=cost, always_on=always_on if cost is None else ()
                )
        checks.check_probe(
            self.decode_model, [self.probe_prompt], self.strategies, ROUTE_COST, self.seed,
            self.sizes.probe_new, captured["replay_tok_per_s"]["report"],
        )
        prefill = captured["prefill_tok_per_s"]
        checks.check_prefill(self.decode_model, self.prefill_tokens, prefill["trace"], prefill["result"])

        star = checks.check_sweep(self.out / "oracle", self.scores, self.costs, self.sufficient, BUDGETS)
        checks.check_exact_small(self.scores, self.costs, rng)
        checks.check_chi2(self.out, star, self.label_len, BIN_WIDTH, NUM_BINS)


def spread_by_length(examples, count: int) -> list:
    """`count` examples at evenly spaced quantiles of token length, so every
    seed trains on the same mix of short and long sequences."""
    ranked = sorted(examples, key=lambda ex: len(tokenize_example(ex).full_ids))
    return [ranked[int((i + 0.5) * len(ranked) / count)] for i in range(count)]


def _per_layer(tracer: Tracer, traced_rounds: int, overhead_pct: float) -> dict:
    out = {}
    for metric, unit, key, stat in PER_LAYER:
        if stat == "busy":
            value = tracer.busy[key] / traced_rounds
        elif stat == "self":
            value = tracer.self_time[key] / traced_rounds
        elif stat == "calls":
            value = tracer.calls[key] / traced_rounds
        elif stat == "count":
            value = tracer.counts[key] / traced_rounds
        elif stat == "nodes_per_call":
            value = tracer.counts["autodiff.nodes"] / max(tracer.calls[key], 1)
        elif stat == "max":
            value = tracer.counts[key]
        else:
            value = overhead_pct
        out[metric] = {"value": value, "unit": unit}
    return out


def set_up(name: str, seed: int, out: Path) -> None:
    """What a set-up sample times, run in a fresh interpreter after it has
    imported this module: build every input of the workload and make one
    warm-up call."""
    Bench(WORKLOADS[name], seed, out).warm_up()


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    setup_sample: Callable[[], float] | None,
    sizes: Sizes | None = None,
    setups: int = 5,
) -> dict:
    """One benchmark run: repeats whole rounds until `seconds` have passed,
    checks round 0's outputs and returns the result object.

    `setup_sample()` returns one set-up time, taken outside this process so
    that it adds nothing to this process's peak memory. setup_s is the median
    of `setups` samples spread over the run, so one slow moment of the machine
    does not set it. A traced run takes none.

    With `trace`, odd rounds run with spans installed; the per-layer metrics
    come from those rounds and the overhead from comparing them with the
    untraced even rounds."""
    bench = Bench(sizes or WORKLOADS[name], seed, workdir)
    bench.warm_up()
    setup_times: list[float] = []
    wanted_setups = 0 if trace else setups
    ops = bench.operations()
    tracer = Tracer()
    samples: dict[str, list[float]] = {metric: [] for metric, _ in ops}
    walls: dict[bool, list[float]] = {False: [], True: []}
    captured: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    min_rounds = 3 if trace else 1
    loop_start = time.perf_counter()
    while True:
        rounds = len(walls[False]) + len(walls[True])
        if len(setup_times) < wanted_setups and time.perf_counter() - loop_start >= len(setup_times) * seconds / wanted_setups:
            setup_times.append(setup_sample())
        traced = trace and rounds % 2 == 1
        gc.collect()  # start every round with the same collector state
        if traced:
            tracer.record_spans = not walls[True]
            tracer.install(TRACE_TARGETS)
        round_start = time.perf_counter()
        try:
            for metric, op in ops:
                attempted += 1
                capture = captured.setdefault(metric, {}) if rounds == 0 else None
                try:
                    work, secs = tracer.timed(f"op.{metric}", op, capture) if traced else op(capture)
                except checks.CheckError as exc:
                    print(f"check failed in {metric}: {exc}", file=sys.stderr)
                    correct = False
                    continue
                except Exception as exc:  # an operation that raises counts as failed; the run goes on
                    print(f"{metric} failed: {exc!r}", file=sys.stderr)
                    failed += 1
                    continue
                samples[metric].append(secs if metric in CALL_TIMES else work / secs)
        finally:
            tracer.uninstall()
            tracer.record_spans = False
        walls[traced].append(time.perf_counter() - round_start)
        if time.perf_counter() - loop_start >= seconds and rounds + 1 >= min_rounds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the checks add theirs
    while len(setup_times) < wanted_setups:
        setup_times.append(setup_sample())
    try:
        bench.check(captured)
    except Exception:  # a failed or crashed check makes the run incorrect; report it and finish
        traceback.print_exc()
        correct = False

    print(f"{name} seed={seed}: {rounds + 1} rounds, setups {[round(t, 4) for t in setup_times]}", file=sys.stderr)
    if trace:
        overhead = 100.0 * (statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)
        result_metrics = _per_layer(tracer, len(walls[True]), overhead)
        trace_file = workdir.parent / f"trace-{name}-s{seed}.json"
        trace_file.write_text(json.dumps({
            "workload": name, "seed": seed, "traced_rounds": len(walls[True]),
            "round_walls": {"untraced": walls[False], "traced": walls[True]},
            "layers": tracer.summary(), "counts": dict(tracer.counts),
            "spans_first_traced_round": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e} for i, p, n, s, e in tracer.spans
            ],
        }))
    else:
        result_metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        for metric, values in samples.items():
            result_metrics[metric] = statistics.median(values) if values else None
        units = dict(END_TO_END)
        result_metrics = {m: {"value": v, "unit": units[m]} for m, v in result_metrics.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}
