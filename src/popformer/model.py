"""Population-to-population transformer.

A fully evaluated parent population is embedded row-per-solution: the
normalized decision vector is zero-padded to a fixed maximum dimension and
linearly projected, and a projection of the min-max normalized objective
vector is added on top so each token carries its position in objective space.
The encoder reads the parent sequence; the decoder autoregressively emits
offspring, cross-attending layer-for-layer into the encoder outputs, and a
linear head squashed through a logistic maps each position back into the
unit box (denormalized to problem bounds).

Training decodes a whole target sequence at once under a causal mask
(:meth:`PopulationTransformer.decode`). Generation decodes one row per
offspring through a :class:`DecoderCache`, which keeps every decoder layer's
self-attention keys and values of the rows already decoded and the
cross-attention keys and values over the fixed encoder memories. Both paths
share the same attention code (``nn.layers.attend``), and the cached one is
exact: with the parents' objective frame, a row's embedding never depends on
later rows, so its cached keys and values are the ones a full re-decode of
the longer prefix would compute again.

One model instance serves every problem whose dimensions fit its capacity.
"""
from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    EvaluationBudget,
    Population,
    Problem,
    ProblemSpec,
    denormalize_decision,
    normalize_decision,
)
from .dataset import minmax_normalize_objectives
from .errors import (
    BudgetExhausted,
    CapacityError,
    CheckpointError,
    ConfigError,
    DataError,
    ModelOutputError,
)
from .nn import (
    Adam,
    AttentionParams,
    MlpParams,
    NormParams,
    Tape,
    attend,
    attention_params,
    causal_mask,
    const,
    layer_norm,
    linear,
    logistic,
    matmul,
    merge_heads,
    mlp_block,
    mlp_params,
    mul,
    multi_head_attention,
    norm_params,
    scale,
    softmax,
    split_heads,
    sub,
    sum_all,
    uniform_linear,
)
from .nn.tensor import Tensor

CHECKPOINT_MAGIC = b"PETM"
CHECKPOINT_VERSION = 1

HEAD_MODES = ("logistic", "softmax")


@dataclass(frozen=True)
class ModelConfig:
    """Capacity and architecture knobs; defaults are desk-scale."""

    d_hat: int = 128      # padded decision width the head also predicts
    m_hat: int = 10       # padded objective width
    width: int = 64       # model width
    layers: int = 2
    heads: int = 4
    max_seq: int = 100    # largest population the model accepts
    head_mode: str = "logistic"

    def __post_init__(self):
        if self.layers < 1:
            raise ConfigError("layers must be >= 1")
        if self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} must be divisible by heads {self.heads}")
        if min(self.d_hat, self.m_hat, self.width, self.heads, self.max_seq) < 1:
            raise ConfigError("all capacity fields must be positive")
        if self.head_mode not in HEAD_MODES:
            raise ConfigError(f"head_mode must be one of {HEAD_MODES}")

    @property
    def hidden(self) -> int:
        return 4 * self.width

    def param_count(self) -> int:
        """Closed-form parameter count; verified against the live model in tests."""
        d, w, h = self.d_hat, self.width, self.hidden
        attn = 4 * (w * w + w)
        norm = 2 * w
        mlp = w * h + h + h * w + w
        encoder_layer = norm + attn + norm + mlp
        decoder_layer = norm + attn + attn + norm + mlp
        return (self.d_hat * w + self.m_hat * w
                + self.layers * (encoder_layer + decoder_layer)
                + w * d + d)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad model config JSON: {exc}") from exc
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown model config fields: {sorted(unknown)}")
        return cls(**payload)


@dataclass
class EncoderBlock:
    ln_attn: NormParams
    attn: AttentionParams
    ln_mlp: NormParams
    mlp: MlpParams


@dataclass
class DecoderBlock:
    ln_self: NormParams
    self_attn: AttentionParams
    cross_attn: AttentionParams
    ln_mlp: NormParams
    mlp: MlpParams


@dataclass
class EncodedParents:
    """Per-layer encoder outputs plus the parent generation's objective frame.

    Decoder contexts are normalized against this frame rather than their own
    min-max: position k's embedding then never depends on later context
    members, which keeps autoregressive decoding exactly causal. It is also
    what lets a :class:`DecoderCache` keep the keys and values of rows
    already decoded: appending a row changes none of them.
    """

    memories: list[Tensor]
    obj_low: np.ndarray
    obj_span: np.ndarray


class DecoderCache:
    """One generation's decoder state for decoding one row at a time.

    Per decoder layer it holds the cross-attention keys and values over that
    layer's encoder memory, projected once because the memories are fixed
    for the generation, and the self-attention keys and values of every row
    decoded so far, one row appended per step. Rows never change once
    appended (see :class:`EncodedParents`), so decoding row k through the
    cache gives row k of :meth:`PopulationTransformer.decode` over the whole
    prefix, up to rounding. Inference only: it holds plain arrays, no tape.
    """

    def __init__(self, model: "PopulationTransformer", encoded: EncodedParents,
                 capacity: int):
        if len(encoded.memories) != len(model.decoder):
            raise ConfigError(
                f"need one encoder memory per decoder layer ({len(model.decoder)}), "
                f"got {len(encoded.memories)}"
            )
        heads = model.config.heads
        shape = (heads, capacity, model.config.width // heads)
        self.frame = (encoded.obj_low, encoded.obj_span)
        self.cross = [
            (split_heads(linear(memory, blk.cross_attn.k), heads),
             split_heads(linear(memory, blk.cross_attn.v), heads))
            for blk, memory in zip(model.decoder, encoded.memories)
        ]
        self.keys = [np.empty(shape) for _ in model.decoder]
        self.values = [np.empty(shape) for _ in model.decoder]
        self.length = 0


def _norm_param_list(prefix: str, p: NormParams):
    return [(f"{prefix}.gain", p.gain), (f"{prefix}.bias", p.bias)]


def _linear_param_list(prefix: str, p):
    return [(f"{prefix}.w", p.w), (f"{prefix}.b", p.b)]


def _attn_param_list(prefix: str, p: AttentionParams):
    out = []
    for name, lin in (("q", p.q), ("k", p.k), ("v", p.v), ("out", p.out)):
        out += _linear_param_list(f"{prefix}.{name}", lin)
    return out


def _mlp_param_list(prefix: str, p: MlpParams):
    return _linear_param_list(f"{prefix}.inner", p.inner) + \
        _linear_param_list(f"{prefix}.outer", p.outer)


class PopulationTransformer:
    """Encoder-decoder model that maps a parent population to offspring."""

    def __init__(self, config: ModelConfig = ModelConfig(), seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        w = config.width
        self.e_dim = uniform_linear(rng, config.d_hat, w).w
        self.e_obj = uniform_linear(rng, config.m_hat, w).w
        self.encoder = [
            EncoderBlock(norm_params(w), attention_params(rng, w),
                         norm_params(w), mlp_params(rng, w, config.hidden))
            for _ in range(config.layers)
        ]
        self.decoder = [
            DecoderBlock(norm_params(w), attention_params(rng, w),
                         attention_params(rng, w),
                         norm_params(w), mlp_params(rng, w, config.hidden))
            for _ in range(config.layers)
        ]
        self.head = uniform_linear(rng, w, config.d_hat)
        self.optimizer: Adam | None = None         # pretraining's
        self.online_optimizer: Adam | None = None  # the online update's own

    # -- parameter plumbing -------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("e_dim", self.e_dim), ("e_obj", self.e_obj)]
        for i, blk in enumerate(self.encoder):
            out += _norm_param_list(f"encoder.{i}.ln_attn", blk.ln_attn)
            out += _attn_param_list(f"encoder.{i}.attn", blk.attn)
            out += _norm_param_list(f"encoder.{i}.ln_mlp", blk.ln_mlp)
            out += _mlp_param_list(f"encoder.{i}.mlp", blk.mlp)
        for i, blk in enumerate(self.decoder):
            out += _norm_param_list(f"decoder.{i}.ln_self", blk.ln_self)
            out += _attn_param_list(f"decoder.{i}.self_attn", blk.self_attn)
            out += _attn_param_list(f"decoder.{i}.cross_attn", blk.cross_attn)
            out += _norm_param_list(f"decoder.{i}.ln_mlp", blk.ln_mlp)
            out += _mlp_param_list(f"decoder.{i}.mlp", blk.mlp)
        out += _linear_param_list("head", self.head)
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # -- embedding ----------------------------------------------------------

    def embed(self, x: np.ndarray, f: np.ndarray, spec: ProblemSpec,
              frame: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
        """Token sequence, row per member: the normalized decisions ``x``
        zero-padded to d_hat, plus the min-max normalized objectives ``f``
        padded to m_hat, each projected to model width.

        Without a frame the rows normalize against their own per-column
        min-max (zero ranges map to 0.5). With a frame (a parent generation's
        low/span) values normalize against that frame and are clipped to a
        generous window so outlier offspring cannot blow up activations.
        """
        (n, m), cfg = f.shape, self.config
        if spec.d > cfg.d_hat:
            raise CapacityError(f"decision dimension {spec.d} exceeds capacity {cfg.d_hat}")
        if m > cfg.m_hat:
            raise CapacityError(f"objective count {m} exceeds capacity {cfg.m_hat}")
        if n > cfg.max_seq:
            raise CapacityError(f"population size {n} exceeds capacity {cfg.max_seq}")
        if frame is None:
            normed = minmax_normalize_objectives(f)
        else:
            low, span = frame
            normed = np.full_like(f, 0.5)
            ok = span > 0
            normed[:, ok] = (f[:, ok] - low[ok]) / span[ok]
            normed = np.clip(normed, -1.0, 2.0)
        decisions = np.zeros((n, cfg.d_hat))
        decisions[:, :spec.d] = normalize_decision(x, spec)
        objectives = np.zeros((n, cfg.m_hat))
        objectives[:, :m] = normed
        return matmul(const(decisions), self.e_dim) + matmul(const(objectives), self.e_obj)

    # -- encoder / decoder --------------------------------------------------

    def encode_layers(self, z: Tensor) -> list[Tensor]:
        """All per-layer encoder outputs; the decoder cross-attends layer-for-layer."""
        outputs = []
        heads = self.config.heads
        for blk in self.encoder:
            normed = layer_norm(z, blk.ln_attn)
            zp = multi_head_attention(normed, normed, normed, blk.attn, heads) + z
            z = mlp_block(layer_norm(zp, blk.ln_mlp), blk.mlp) + zp
            outputs.append(z)
        return outputs

    def encode_parents(self, parents: Population, spec: ProblemSpec) -> EncodedParents:
        """Run the encoder once; the result conditions every decode step."""
        if not parents.all_evaluated:
            raise DataError("encoding requires an evaluated parent population")
        low = parents.f.min(axis=0)
        memories = self.encode_layers(self.embed(parents.x, parents.f, spec))
        return EncodedParents(memories=memories, obj_low=low,
                              obj_span=parents.f.max(axis=0) - low)

    def decode(self, y: Tensor, memories: list[Tensor]) -> Tensor:
        """Masked self-attention, cross-attention into the encoder, then MLP.

        The cross block queries with the self-attention output and adds no
        normalization of its own; the MLP reads LN(cross + self) and the
        residual carries the cross output.
        """
        if len(memories) != len(self.decoder):
            raise ConfigError(
                f"need one encoder memory per decoder layer ({len(self.decoder)}), got {len(memories)}"
            )
        mask = causal_mask(y.shape[0])
        heads = self.config.heads
        for blk, memory in zip(self.decoder, memories):
            normed = layer_norm(y, blk.ln_self)
            yp = multi_head_attention(normed, normed, normed, blk.self_attn, heads, mask=mask) + y
            cross = multi_head_attention(yp, memory, memory, blk.cross_attn, heads)
            y = mlp_block(layer_norm(cross + yp, blk.ln_mlp), blk.mlp) + cross
        return y

    def decode_next(self, z: Tensor, cache: DecoderCache) -> Tensor:
        """Decode one embedded row (1, D) after the rows already in ``cache``.

        The same blocks as :meth:`decode`: the new row's self-attention keys
        and values join the cache, its query attends over every cached row
        (no mask is needed, none of them is later), and its cross-attention
        query reads the cached memory projections.
        """
        t = cache.length
        if t == cache.keys[0].shape[1]:
            raise CapacityError(f"decoder cache is full at {t} rows")
        heads = self.config.heads
        y = z
        for blk, keys, values, (cross_k, cross_v) in zip(
                self.decoder, cache.keys, cache.values, cache.cross):
            normed = layer_norm(y, blk.ln_self)
            p = blk.self_attn
            keys[:, t] = split_heads(linear(normed, p.k), heads).data[:, 0]
            values[:, t] = split_heads(linear(normed, p.v), heads).data[:, 0]
            mixed = attend(split_heads(linear(normed, p.q), heads),
                           const(keys[:, :t + 1]), const(values[:, :t + 1]))
            yp = linear(merge_heads(mixed), p.out) + y
            p = blk.cross_attn
            mixed = attend(split_heads(linear(yp, p.q), heads), cross_k, cross_v)
            cross = linear(merge_heads(mixed), p.out)
            y = mlp_block(layer_norm(cross + yp, blk.ln_mlp), blk.mlp) + cross
        cache.length = t + 1
        return y

    def head_activations(self, y: Tensor) -> Tensor:
        """Per-position unit-box outputs of width d_hat."""
        logits = linear(y, self.head)
        if self.config.head_mode == "softmax":
            return softmax(logits)
        return logistic(logits)

    # -- inference ----------------------------------------------------------

    def _decision(self, y: Tensor, spec: ProblemSpec, generation: int,
                  step: int) -> np.ndarray:
        """The first d head outputs of row ``y``, denormalized to the bounds."""
        unit = self.head_activations(y).data[-1, :spec.d]
        if not np.isfinite(unit).all():
            raise ModelOutputError(
                f"generation {generation}, decode step {step}: the model output "
                f"has non-finite components", generation=generation, step=step,
            )
        return denormalize_decision(unit, spec)

    def generate(self, parents: Population, problem: Problem, budget: EvaluationBudget,
                 rng: np.random.Generator, n_offspring: int | None = None) -> Population:
        """Autoregressively produce an evaluated offspring population.

        The context is seeded with one uniform-random evaluated solution that
        both consumes budget and counts as the first offspring; decoding then
        alternates propose / evaluate / append until the target size or the
        budget runs out, so a short population means the budget ran out.

        Each step embeds, decodes and heads only the newest member: a
        :class:`DecoderCache` carries every earlier row's self-attention keys
        and values and the parents' cross-attention keys and values, which is
        exact because rows are normalized in the parents' objective frame.
        Offspring rows are written into arrays preallocated for the target
        size. A non-finite model output raises :class:`ModelOutputError`
        naming the generation and the decode step.
        """
        if not parents.all_evaluated:
            raise DataError("generation requires evaluated parents")
        spec = problem.spec
        generation = parents.generation_index + 1
        n_target = min(n_offspring or len(parents), self.config.max_seq)
        cache = DecoderCache(self, self.encode_parents(parents, spec), n_target)
        x, f, cv = np.empty((n_target, spec.d)), np.empty((n_target, spec.m)), np.empty(n_target)
        x[0] = rng.uniform(spec.lower, spec.upper)
        size = 0
        while size < n_target:
            if size:
                z = self.embed(x[size - 1:size], f[size - 1:size], spec, frame=cache.frame)
                x[size] = self._decision(self.decode_next(z, cache), spec, generation, size)
            if budget.reserve(1) == 0:
                if size:
                    break
                raise BudgetExhausted(
                    "no budget for the initialization token", performed=0,
                    population=Population(x[:0], generation_index=generation),
                )
            try:
                f[size], cv[size] = problem.evaluate_solution(x[size])
            except Exception:
                budget.release(1)
                raise
            size += 1
        return Population(x[:size], f[:size], cv[:size], generation)

    # -- training -----------------------------------------------------------

    def forced_loss(self, parents: Population, targets: Population,
                    spec: ProblemSpec) -> Tensor:
        """Scalar MSE of the decoder's next-solution predictions.

        The decoder consumes the target sequence without its last element (its
        first element plays the initialization-token role, matching
        generation); position k predicts target k+1. Only the first d head
        outputs enter the loss; padded components are masked away.
        """
        if len(targets) < 2:
            raise DataError("teacher forcing needs a target population of size >= 2")
        if not (parents.all_evaluated and targets.all_evaluated):
            raise DataError("teacher forcing requires evaluated populations")
        if parents.x.shape[1] != targets.x.shape[1] or parents.f.shape[1] != targets.f.shape[1]:
            raise DataError("parent and target populations disagree in (d, m)")
        encoded = self.encode_parents(parents, spec)
        frame = (encoded.obj_low, encoded.obj_span)
        y = self.decode(self.embed(targets.x[:-1], targets.f[:-1], spec, frame=frame),
                        encoded.memories)
        pred = self.head_activations(y)  # (T-1, d_hat)
        goal = np.zeros((len(targets) - 1, self.config.d_hat))
        goal[:, :spec.d] = normalize_decision(targets.x[1:], spec)
        mask = np.zeros(self.config.d_hat)
        mask[:spec.d] = 1.0
        diff = sub(pred, const(goal))
        masked_sq = mul(mul(diff, diff), const(mask))
        return scale(sum_all(masked_sq), 1.0 / ((len(targets) - 1) * spec.d))


def teacher_forced_loss(model: PopulationTransformer, parents: Population,
                        targets: Population, spec: ProblemSpec) -> float:
    """Run one forward/backward pass; gradients accumulate on the model."""
    with Tape() as tape:
        loss = model.forced_loss(parents, targets, spec)
    tape.backward(loss)
    return loss.item()


# -- checkpoint io ----------------------------------------------------------

def save_checkpoint(model: PopulationTransformer, path) -> None:
    """Binary format: magic, u32 version, length-prefixed config JSON, then
    every parameter in declaration order as u32 rank, u32 extents, f64 data."""
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    cfg = model.config.to_json().encode("utf-8")
    blob += struct.pack("<I", len(cfg))
    blob += cfg
    for _, p in model.named_parameters():
        blob += struct.pack("<I", p.data.ndim)
        for extent in p.data.shape:
            blob += struct.pack("<I", extent)
        blob += p.data.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path, expect_config: ModelConfig | None = None) -> PopulationTransformer:
    with open(path, "rb") as fh:
        blob = fh.read()
    view = memoryview(blob)
    offset = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal offset
        if offset + n > len(view):
            raise CheckpointError(f"{path}: truncated while reading {what}")
        chunk = view[offset:offset + n]
        offset += n
        return chunk

    if bytes(take(4, "magic")) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", take(4, "config length"))
    config = ModelConfig.from_json(bytes(take(cfg_len, "config")).decode("utf-8"))
    if expect_config is not None and config != expect_config:
        raise CheckpointError(f"{path}: checkpoint config differs from the requested config")
    model = PopulationTransformer(config, seed=0)
    for name, p in model.named_parameters():
        (ndim,) = struct.unpack("<I", take(4, f"{name} rank"))
        shape = tuple(struct.unpack("<I", take(4, f"{name} extent"))[0] for _ in range(ndim))
        if shape != p.data.shape:
            raise CheckpointError(
                f"{path}: parameter {name} has shape {shape}, expected {p.data.shape}"
            )
        count = int(np.prod(shape)) if shape else 1
        raw = take(8 * count, f"{name} data")
        p.data = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
        if not np.isfinite(p.data).all():
            raise CheckpointError(f"{path}: parameter {name} has non-finite values")
    if offset != len(view):
        raise CheckpointError(f"{path}: {len(view) - offset} trailing bytes after parameters")
    return model
