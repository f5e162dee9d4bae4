"""Compiled no-grad inference: lower a trained ranker into raw-numpy plans.

The eager path runs every forward through the autograd ``Tensor`` — one
Python object, one graph-bookkeeping decision and one fresh ndarray per op.
For inference that overhead dwarfs the actual numpy FLOPs on the paper's
small models.  :func:`compile_inference` traces a ranker :class:`Module`
once into a *plan*: a flat list of named steps over raw ``numpy`` arrays
with

* no ``Tensor`` allocation per op — steps read parameter ``.data`` arrays
  live (so a plan stays valid across optimizer updates) and write into
  preallocated per-step output buffers;
* fused elementwise chains — affine + bias + ReLU run in place on one
  buffer, sigmoid/softmax are single vectorized expressions;
* the head-input concatenation replaced by slice writes into one buffer;
* the sequence encoder run once per pump history (``Batch.seq_index``),
  its output gathered onto the candidate rows.

Every step replicates the eager op's exact floating-point expression (same
operation order, same formulas), so compiled logits are bit-for-bit the
eager logits; the first execution of a plan additionally *verifies* this
with an ``allclose`` check against an eager ``no_grad`` forward and raises
:class:`CompileError` on any mismatch.

Supported architectures: :class:`~repro.core.snn.SNN` and every deep
Table 5 competitor (DNN, LSTM/BiLSTM/GRU/BiGRU, TCN rankers).  Unsupported
modules raise :class:`CompileError`; call sites fall back to the eager
path via :func:`run_compiled`, which returns ``None`` instead of raising.

Plans are inference-only: they implement eval-mode semantics (dropout is
identity) and never record gradients.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.nn.layers import MLP, Linear
from repro.nn.module import Module
from repro.nn.tensor import no_grad, stable_sigmoid
from repro.telemetry import default_registry


class CompileError(RuntimeError):
    """The module cannot be lowered, or a plan disagreed with eager."""


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Raw-numpy replica of ``Tensor.sigmoid`` (tanh form, bit-identical)."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Raw-numpy replica of ``Tensor.softmax`` (shifted exp, bit-identical)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


class _BufferPool:
    """Named preallocated output buffers, reused across executions.

    Buffers are keyed by step name; a shape change (e.g. the tail batch of
    an evaluation pass, or a different candidate count per announcement)
    reallocates that one buffer and keeps the rest.
    """

    def __init__(self):
        self._store: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._store.get(name)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=np.float64)
            self._store[name] = buf
        return buf


@dataclass(frozen=True)
class Step:
    """One traced plan step: a named raw-numpy operation over the context."""

    name: str
    run: Callable[[dict], None]


class CompiledInference:
    """A flat, reusable plan of raw-numpy ops for one ranker module.

    ``logits(batch)`` executes the plan; the returned array is a plan-owned
    buffer valid until the next execution (copy it to keep it).
    ``probabilities(batch)`` applies the stable sigmoid and returns a fresh
    array.  The first execution self-verifies against an eager ``no_grad``
    forward of the source module.
    """

    def __init__(self, model: Module, steps: list[Step], output: str,
                 watched: list[tuple[str, object]] | None = None):
        # Weak: plans are cached in a WeakKeyDictionary keyed by the model,
        # so a strong reference here would keep dead models alive forever.
        self._model_ref = weakref.ref(model)
        self._steps = steps
        self._output = output
        self._buffers = _BufferPool()
        self._verified = False
        # Submodules captured at trace time: if any is reassigned on the
        # model afterwards (e.g. an ablation swapping the attention layer),
        # the plan is stale and must be retraced.
        self._watched = list(watched or ())

    @property
    def steps(self) -> list[Step]:
        """The traced plan (read-only view for tests/introspection)."""
        return list(self._steps)

    def _execute(self, batch) -> np.ndarray:
        ctx: dict = {"batch": batch, "buffers": self._buffers}
        for step in self._steps:
            step.run(ctx)
        return ctx[self._output]

    def stale(self) -> bool:
        """True when a traced submodule was reassigned on the source model."""
        model = self._model_ref()
        if model is None:
            return False
        return any(
            getattr(model, name, None) is not obj for name, obj in self._watched
        )

    def logits(self, batch) -> np.ndarray:
        """Pre-sigmoid scores ``(B,)`` for a :class:`~repro.core.snn.Batch`."""
        if self.stale():
            raise CompileError(
                "a traced submodule was replaced after compilation; retrace "
                "the model with compile_inference()"
            )
        out = self._execute(batch)
        if not self._verified:
            self.verify(batch, _compiled=out)
        return out

    __call__ = logits

    def probabilities(self, batch) -> np.ndarray:
        """Pump probabilities via the numerically stable sigmoid."""
        return stable_sigmoid(self.logits(batch))

    def verify(self, batch, _compiled: np.ndarray | None = None) -> None:
        """Check the plan against the eager eval-mode forward (allclose).

        Raises :class:`CompileError` on mismatch; marks the plan verified on
        success so later executions skip the eager pass.
        """
        model = self._model_ref()
        if model is None:
            raise CompileError("source module was garbage-collected")
        import time as _time

        started = _time.perf_counter()
        compiled = self._execute(batch) if _compiled is None else _compiled
        model.eval()
        with no_grad():
            eager = model(batch).numpy()
        default_registry().histogram(
            "compile_verify_seconds",
            "Wall time to verify a compiled plan against the eager forward.",
        ).observe(_time.perf_counter() - started)
        if compiled.shape != eager.shape or not np.allclose(
            compiled, eager, rtol=1e-6, atol=1e-9
        ):
            raise CompileError(
                f"compiled plan diverged from eager forward for "
                f"{type(model).__name__} (max abs diff "
                f"{np.max(np.abs(compiled - eager)):.3e})"
            )
        self._verified = True


# -- lowering -----------------------------------------------------------------


def _lower_mlp(head: MLP, input_key: str, output_key: str,
               prefix: str) -> list[Step]:
    """Affine + ReLU chain fused in place on preallocated buffers."""
    linears: list[Linear] = list(head.linears)
    last = len(linears) - 1

    def make_step(i: int, linear: Linear) -> Step:
        name = f"{prefix}.linear{i}"
        src = input_key if i == 0 else f"{prefix}.h{i - 1}"
        dst = output_key if i == last else f"{prefix}.h{i}"

        def run(ctx: dict) -> None:
            h = ctx[src]
            out = ctx["buffers"].get(name, (h.shape[0], linear.out_features))
            if linear.out_features == 1:
                # Mirror the eager Linear's single-output path (multiply
                # + pairwise row sum, batch-size-stable) op for op so the
                # plan stays bit-identical to the eager forward.
                prod = ctx["buffers"].get(f"{name}.prod", h.shape)
                np.multiply(h, linear.weight.data[:, 0], out=prod)
                np.sum(prod, axis=1, out=out[:, 0])
            else:
                np.matmul(h, linear.weight.data, out=out)
            if linear.bias is not None:
                out += linear.bias.data
            if i != last:
                np.maximum(out, 0.0, out=out)
            ctx[dst] = out

        return Step(name, run)

    return [make_step(i, linear) for i, linear in enumerate(linears)]


def _lower_sequence_input(model, masked_key: str) -> Step:
    """Build the masked ``(R, N, K)`` history tensor from raw batch arrays."""
    coin_embedding = model.coin_embedding
    emb_dim = coin_embedding.dim

    def run(ctx: dict) -> None:
        batch = ctx["batch"]
        r, n = batch.seq_coin_idx.shape
        k = emb_dim + batch.seq_numeric.shape[-1]
        seq = ctx["buffers"].get("seq_input", (r, n, k))
        seq[:, :, :emb_dim] = coin_embedding.weight.data[batch.seq_coin_idx]
        seq[:, :, emb_dim:] = batch.seq_numeric
        seq *= batch.seq_mask[:, :, None]
        ctx[masked_key] = seq

    return Step("seq_input", run)


def _attention_forward(attention, seq: np.ndarray) -> np.ndarray:
    """Raw-numpy replica of ``PositionalAttention.forward``."""
    logits = attention.logits.data
    if attention.map_in is not None:
        hidden = logits @ attention.map_in.weight.data
        if attention.map_in.bias is not None:
            hidden = hidden + attention.map_in.bias.data
        hidden = np.tanh(hidden)
        logits = hidden @ attention.map_out.weight.data
        if attention.map_out.bias is not None:
            logits = logits + attention.map_out.bias.data
    alpha = _softmax(logits, axis=-1)                  # (H, N)
    columns = seq[:, :, attention._feature_of_head]    # (B, N, H)
    columns *= alpha.transpose(1, 0)
    return columns.sum(axis=1)


def _lower_rnn_encoder(encoder) -> Callable[[np.ndarray], np.ndarray]:
    """Raw-numpy unrolled forward of LSTM/GRU/Bidirectional encoders."""
    from repro.nn.rnn import GRU, LSTM, Bidirectional

    if isinstance(encoder, LSTM):
        cell = encoder.cell
        hd = cell.hidden_dim

        def run_lstm(x: np.ndarray) -> np.ndarray:
            b, time, _ = x.shape
            h = np.zeros((b, hd))
            c = np.zeros((b, hd))
            w_ih, w_hh, bias = cell.w_ih.data, cell.w_hh.data, cell.bias.data
            for t in range(time):
                gates = x[:, t, :] @ w_ih + h @ w_hh + bias
                i = _sigmoid(gates[:, 0 * hd: 1 * hd])
                f = _sigmoid(gates[:, 1 * hd: 2 * hd])
                g = np.tanh(gates[:, 2 * hd: 3 * hd])
                o = _sigmoid(gates[:, 3 * hd: 4 * hd])
                c = f * c + i * g
                h = o * np.tanh(c)
            return h

        return run_lstm
    if isinstance(encoder, GRU):
        cell = encoder.cell
        hd = cell.hidden_dim

        def run_gru(x: np.ndarray) -> np.ndarray:
            b, time, _ = x.shape
            h = np.zeros((b, hd))
            w_ih, w_hh, bias = cell.w_ih.data, cell.w_hh.data, cell.bias.data
            for t in range(time):
                gi = x[:, t, :] @ w_ih + bias
                gh = h @ w_hh
                r = _sigmoid(gi[:, 0 * hd: 1 * hd] + gh[:, 0 * hd: 1 * hd])
                z = _sigmoid(gi[:, 1 * hd: 2 * hd] + gh[:, 1 * hd: 2 * hd])
                n = np.tanh(gi[:, 2 * hd: 3 * hd] + r * gh[:, 2 * hd: 3 * hd])
                h = (1.0 - z) * n + z * h
            return h

        return run_gru
    if isinstance(encoder, Bidirectional):
        fwd = _lower_rnn_encoder(encoder.forward_enc)
        bwd = _lower_rnn_encoder(encoder.backward_enc)

        def run_bidir(x: np.ndarray) -> np.ndarray:
            return np.concatenate([fwd(x), bwd(x[:, ::-1, :])], axis=-1)

        return run_bidir
    raise CompileError(f"unsupported sequence encoder {type(encoder).__name__}")


def _lower_tcn_encoder(encoder) -> Callable[[np.ndarray], np.ndarray]:
    """Raw-numpy forward of a TCN stack (eval mode: dropout is identity)."""

    def run_conv(conv, x: np.ndarray) -> np.ndarray:
        _, time, _ = x.shape
        pad = conv.left_context
        if pad:
            padded = np.concatenate(
                [np.zeros((x.shape[0], pad, x.shape[2])), x], axis=1
            )
        else:
            padded = x
        weight = conv.weight.data
        out = None
        for k in range(conv.kernel_size):
            offset = k * conv.dilation
            tap = padded[:, offset: offset + time, :] @ weight[k]
            out = tap if out is None else out + tap
        return out + conv.bias.data

    def run_tcn(x: np.ndarray) -> np.ndarray:
        out = x
        for block in encoder.blocks:
            inner = np.maximum(run_conv(block.conv1, out), 0.0)
            inner = np.maximum(run_conv(block.conv2, inner), 0.0)
            residual = out if block.downsample is None else run_conv(
                block.downsample, out
            )
            out = np.maximum(inner + residual, 0.0)
        return out[:, -1, :]

    return run_tcn


def _lower_encoder(encoder) -> Callable[[np.ndarray], np.ndarray]:
    from repro.nn.conv import TCN

    if isinstance(encoder, TCN):
        return _lower_tcn_encoder(encoder)
    return _lower_rnn_encoder(encoder)


def _lower_ranker(model) -> tuple[list[Step], str, list[tuple[str, object]]]:
    """Lower SNN / _DeepRanker architectures into a step plan."""
    from repro.core.baselines import _DeepRanker
    from repro.core.snn import SNN

    if not isinstance(model, (SNN, _DeepRanker)):
        raise CompileError(
            f"no lowering rule for {type(model).__name__}; "
            "supported: SNN and the deep Table 5 rankers"
        )
    config = model.config
    channel_embedding = model.channel_embedding
    coin_embedding = model.coin_embedding
    watched = [
        ("channel_embedding", channel_embedding),
        ("coin_embedding", coin_embedding),
        ("head", model.head),
    ]
    if isinstance(model, SNN):
        watched.append(("attention", model.attention))
    elif model.sequence_encoder is not None:
        watched.append(("sequence_encoder", model.sequence_encoder))
    ce, co, nn = config.channel_emb_dim, config.coin_emb_dim, config.n_numeric

    if isinstance(model, SNN):
        seq_dim = model.attention.output_dim
    elif model.sequence_encoder is None:
        seq_dim = 0
    else:
        seq_dim = model.sequence_encoder.output_dim
    head_in = ce + co + nn + seq_dim
    steps: list[Step] = []

    def run_embed(ctx: dict) -> None:
        batch = ctx["batch"]
        b = len(batch.channel_idx)
        x = ctx["buffers"].get("head_input", (b, head_in))
        x[:, :ce] = channel_embedding.weight.data[batch.channel_idx]
        x[:, ce: ce + co] = coin_embedding.weight.data[batch.coin_idx]
        x[:, ce + co: ce + co + nn] = batch.numeric
        ctx["head_input"] = x

    steps.append(Step("embed+numeric", run_embed))

    def write_h_s(ctx: dict, h_s: np.ndarray) -> None:
        # One encoding per history, gathered onto its candidate rows.
        index = ctx["batch"].seq_index
        ctx["head_input"][:, ce + co + nn:] = (
            h_s if index is None else h_s[index])

    if seq_dim:
        steps.append(_lower_sequence_input(model, "seq_masked"))
        if isinstance(model, SNN):
            attention = model.attention

            def run_seq(ctx: dict) -> None:
                write_h_s(ctx, _attention_forward(attention,
                                                  ctx["seq_masked"]))

            steps.append(Step("positional_attention", run_seq))
        else:
            encoder_fn = _lower_encoder(model.sequence_encoder)

            def run_seq(ctx: dict) -> None:
                # Histories are newest-first; encoders read oldest-first.
                write_h_s(ctx, encoder_fn(ctx["seq_masked"][:, ::-1, :]))

            steps.append(Step("sequence_encoder", run_seq))

    steps.extend(_lower_mlp(model.head, "head_input", "head_out", "head"))

    def run_ravel(ctx: dict) -> None:
        ctx["logits"] = ctx["head_out"].reshape(-1)

    steps.append(Step("ravel", run_ravel))
    return steps, "logits", watched


def compile_inference(model: Module, sample_batch=None) -> CompiledInference:
    """Trace ``model`` into a :class:`CompiledInference` plan.

    ``sample_batch`` optionally verifies the plan immediately; otherwise the
    first execution verifies lazily.  Raises :class:`CompileError` for
    unsupported modules or on verification mismatch.
    """
    steps, output, watched = _lower_ranker(model)
    plan = CompiledInference(model, steps, output, watched)
    default_registry().counter(
        "compile_plan_builds_total", "Inference plans traced, per model class.",
        ("model",),
    ).labels(model=type(model).__name__).inc()
    if sample_batch is not None:
        plan.verify(sample_batch)
    return plan


def synthetic_batch(config, batch_size: int = 4, seed: int = 0):
    """A small seeded batch matching a ranker config.

    Used to warm up and verify a plan before real traffic arrives.  It has
    the serving layout: two histories, one full and one left-padded (so
    masking is exercised), each shared by half the rows through
    ``seq_index`` (so the gather is exercised).
    """
    from repro.core.snn import Batch

    rng = np.random.default_rng(seed)
    pad_id = config.n_coin_ids - 1
    seq_ids = rng.integers(0, max(pad_id, 1), size=(2, config.seq_len))
    mask = np.ones((2, config.seq_len))
    real = rng.integers(0, config.seq_len)
    mask[1, real:] = 0.0
    seq_ids[1, real:] = pad_id
    return Batch(
        channel_idx=rng.integers(0, config.n_channels, size=batch_size),
        coin_idx=rng.integers(0, max(pad_id, 1), size=batch_size),
        numeric=rng.normal(size=(batch_size, config.n_numeric)),
        seq_coin_idx=seq_ids,
        seq_numeric=rng.normal(
            size=(2, config.seq_len, config.n_seq_numeric)
        ) * mask[:, :, None],
        seq_mask=mask,
        label=np.zeros(batch_size),
        seq_index=np.arange(batch_size) * 2 // batch_size,
    )


# One shared plan per module instance: batch evaluation, the offline
# predictor and the streaming PredictionService all reuse the same trace.
_PLAN_CACHE: "weakref.WeakKeyDictionary[Module, CompiledInference | None]" = (
    weakref.WeakKeyDictionary()
)


def get_compiled(model: Module) -> CompiledInference | None:
    """Memoized :func:`compile_inference`; ``None`` if unsupported."""
    try:
        return _PLAN_CACHE[model]
    except KeyError:
        pass
    try:
        plan = compile_inference(model)
    except CompileError:
        plan = None
    _PLAN_CACHE[model] = plan
    return plan


def run_compiled(model: Module, batch) -> np.ndarray | None:
    """Compiled logits for ``batch``, or ``None`` to signal eager fallback.

    A stale plan (a submodule was reassigned since tracing) is retraced
    once; if the fresh plan also fails — i.e. genuine verification
    divergence — the model is pinned to the slow-but-known-good eager path
    instead of ever returning wrong scores.
    """
    plan = get_compiled(model)
    if plan is None:
        return None
    try:
        return plan.logits(batch)
    except CompileError:
        try:
            plan = compile_inference(model)
            out = plan.logits(batch)
        except CompileError:
            _PLAN_CACHE[model] = None
            return None
        _PLAN_CACHE[model] = plan
        return out


def prewarm(model: Module) -> CompiledInference | None:
    """Compile *and verify* a model's plan ahead of real traffic.

    Verification runs on a :func:`synthetic_batch` built from the model's
    config, so the first production batch pays neither tracing nor the
    verify-time eager forward.  Returns the verified plan, or ``None`` when
    the model is unsupported or failed verification (callers then use the
    eager path via :func:`run_compiled`'s fallback).  A plan that already
    passed verification is returned as-is — stacked prewarms (e.g. artifact
    load followed by service construction) pay the eager forward once.
    """
    plan = get_compiled(model)
    if plan is None:
        return None
    if getattr(plan, "_verified", False):
        # Already proven against eager — by an earlier prewarm or by the
        # plan's own first execution.
        return plan
    config = getattr(model, "config", None)
    if config is None:
        return plan
    try:
        plan.verify(synthetic_batch(config))
    except CompileError:
        _PLAN_CACHE[model] = None
        return None
    return plan
