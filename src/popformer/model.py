"""Population-to-population transformer.

A fully evaluated parent population is embedded row-per-solution: the
normalized decision vector is zero-padded to a fixed maximum dimension and
linearly projected, and a projection of the min-max normalized objective
vector is added on top so each token carries its position in objective space.
The encoder reads the parent sequence; the decoder autoregressively emits
offspring, cross-attending layer-for-layer into the encoder outputs, and a
linear head squashed through a logistic maps each position back into the
unit box (denormalized to problem bounds).

Training decodes whole target sequences at once under a causal mask
(:meth:`PopulationTransformer.decode`), a stack of same-shape pairs per
tape pass. Generation decodes one row per offspring through a
:class:`DecoderCache`, which keeps every decoder layer's self-attention keys
and values of the rows already decoded and the cross-attention keys and
values over the fixed encoder memories, all plain arrays off the tape. The
one-row step (:meth:`PopulationTransformer.decode_next`) runs the products
of a full decode for its row in the same order, with the self-attention
query, key and value projections packed into one product, and it is exact:
with the parents' objective frame, a row's embedding never depends on later
rows, so its cached keys and values are the ones a full re-decode of the
longer prefix would compute again.

One model instance serves every problem whose dimensions fit its capacity.
"""
from __future__ import annotations

import json
import math
import struct
import zlib
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import (
    EvaluationBudget,
    Population,
    Problem,
    ProblemSpec,
    denormalize_decision,
    normalize_decision,
    require_count,
)
from .dataset import minmax_normalize_objectives, objective_frame
from .errors import (
    CapacityError,
    CheckpointError,
    ConfigError,
    DataError,
    ModelOutputError,
)
from .nn import (
    AttentionParams,
    MlpParams,
    NormParams,
    Tape,
    attention_params,
    causal_mask,
    const,
    layer_norm,
    linear,
    logistic,
    matmul,
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
CHECKPOINT_VERSION = 2
# objectives normalized in a parent frame are clipped to this window, so an
# outlier offspring cannot blow up activations
FRAME_WINDOW = (-1.0, 2.0)


@dataclass(frozen=True)
class ModelConfig:
    """Capacity and architecture knobs; defaults are desk-scale."""

    d_hat: int = 128      # padded decision width the head also predicts
    m_hat: int = 10       # padded objective width
    width: int = 64       # model width
    layers: int = 2
    heads: int = 4
    max_seq: int = 100    # largest population the model accepts

    def __post_init__(self):
        for f in fields(self):
            require_count(getattr(self, f.name), f.name)
        if self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} must be divisible by heads {self.heads}")

    def check_fits(self, d: int, m: int, n: int, what: str) -> None:
        """Raise CapacityError naming ``what`` unless ``n`` members with ``d``
        decision variables and ``m`` objectives fit this model."""
        for size, cap, text in ((d, self.d_hat, f"{what} with {d} decision variables"),
                                (m, self.m_hat, f"{what} with {m} objectives"),
                                (n, self.max_seq, f"{n} {what}")):
            if size > cap:
                raise CapacityError(f"{text} exceed model capacity {cap}")

    @property
    def hidden(self) -> int:
        return 4 * self.width

    def to_json(self) -> str:
        # default=int writes numpy integer fields as the ints they hold
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"), default=int)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad model config JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"model config must be a JSON object, got {type(payload).__name__}")
        # configs written before the softmax head was removed name the head
        if payload.pop("head_mode", "logistic") != "logistic":
            raise ConfigError("only the logistic head exists; the softmax head was removed")
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

    memories: list[np.ndarray]
    obj_low: np.ndarray
    obj_span: np.ndarray


class DecoderCache:
    """One generation's decoder state for decoding one row at a time.

    Per decoder layer it holds the self-attention q/k/v weights packed into
    one (D, 3D) matrix and one bias, copied when the cache is built so that
    each online update reaches the next generation; the cross-attention keys
    and values over that layer's encoder memory, projected once because the
    memories are fixed for the generation; and the self-attention keys and
    values of every row decoded so far, one row appended per step. Rows
    never change once appended (see :class:`EncodedParents`), so decoding
    row k through the cache gives row k of
    :meth:`PopulationTransformer.decode` over the whole prefix, up to
    rounding. Its zero-padded decision and objective rows are the one-row
    embedding's inputs. Inference only: it holds plain arrays, no tape.
    """

    def __init__(self, model: "PopulationTransformer", encoded: EncodedParents,
                 capacity: int):
        if len(encoded.memories) != len(model.decoder):
            raise ConfigError(
                f"need one encoder memory per decoder layer ({len(model.decoder)}), "
                f"got {len(encoded.memories)}"
            )
        cfg = model.config
        heads = cfg.heads
        shape = (heads, capacity, cfg.width // heads)
        self.frame = (encoded.obj_low, encoded.obj_span)
        self.decisions, self.objectives = np.zeros(cfg.d_hat), np.zeros(cfg.m_hat)
        self.qkv = [
            (np.concatenate([lin.w.data for lin in (p.q, p.k, p.v)], axis=1),
             np.concatenate([lin.b.data for lin in (p.q, p.k, p.v)]))
            for p in (blk.self_attn for blk in model.decoder)
        ]
        self.cross = [
            (split_heads(linear(memory, blk.cross_attn.k), heads),
             split_heads(linear(memory, blk.cross_attn.v), heads))
            for blk, memory in zip(model.decoder, encoded.memories)
        ]
        self.keys = [np.empty(shape) for _ in model.decoder]
        self.values = [np.empty(shape) for _ in model.decoder]
        self.length = 0


def _named_tensors(prefix: str, node) -> list[tuple[str, Tensor]]:
    """Every Tensor in a tree of parameter dataclasses, in field order."""
    if isinstance(node, Tensor):
        return [(prefix, node)]
    return [pair for field in fields(node)
            for pair in _named_tensors(f"{prefix}.{field.name}", getattr(node, field.name))]


class PopulationTransformer:
    """Encoder-decoder model that maps a parent population to offspring."""

    def __init__(self, config: ModelConfig = ModelConfig(), seed: int = 0):
        self.config = config
        rng = np.random.default_rng(require_count(seed, "seed", minimum=0))
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

    # -- parameter plumbing -------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """Every parameter with its dotted name, in the checkpoint's order."""
        out = [("e_dim", self.e_dim), ("e_obj", self.e_obj)]
        for part in ("encoder", "decoder"):
            for i, blk in enumerate(getattr(self, part)):
                out += _named_tensors(f"{part}.{i}", blk)
        return out + _named_tensors("head", self.head)

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    # -- embedding ----------------------------------------------------------

    def embed(self, x: np.ndarray, f: np.ndarray, spec: ProblemSpec,
              frame: tuple[np.ndarray, np.ndarray] | None = None,
              tape: bool = True) -> Tensor | np.ndarray:
        """Token sequence, row per member: the normalized decisions ``x``
        zero-padded to d_hat, plus the min-max normalized objectives ``f``
        padded to m_hat, each projected to model width.

        ``x`` and ``f`` are (..., n, d) and (..., n, m); leading axes stack
        sequences, each normalized on its own. Without a frame the rows
        normalize against their own per-column min-max (zero ranges map to
        0.5). With a frame (a parent generation's low/span, each (..., m))
        values normalize against that frame and are clipped to
        :data:`FRAME_WINDOW`. With ``tape=False`` the tokens are a plain
        array for inference.
        """
        *lead, n, m = f.shape
        cfg = self.config
        cfg.check_fits(spec.d, m, n, "members")
        normed = minmax_normalize_objectives(f, frame)
        if frame is not None:
            normed = np.clip(normed, *FRAME_WINDOW)
        decisions = np.zeros((*lead, n, cfg.d_hat))
        decisions[..., :spec.d] = normalize_decision(x, spec)
        objectives = np.zeros((*lead, n, cfg.m_hat))
        objectives[..., :m] = normed
        if not tape:
            return decisions @ self.e_dim.data + objectives @ self.e_obj.data
        return matmul(const(decisions), self.e_dim) + matmul(const(objectives), self.e_obj)

    def embed_next(self, x: np.ndarray, f: np.ndarray, spec: ProblemSpec,
                   cache: "DecoderCache") -> np.ndarray:
        """The plain (D,) :meth:`embed` row of one member's (d,) decisions
        and (m,) objectives in the cache's frame, built in the cache's
        zero-padded rows; the parents' :meth:`embed` checked the capacity."""
        cache.decisions[:spec.d] = normalize_decision(x, spec)
        cache.objectives[:spec.m] = np.clip(minmax_normalize_objectives(f, cache.frame),
                                            *FRAME_WINDOW)
        return cache.decisions @ self.e_dim.data + cache.objectives @ self.e_obj.data

    # -- encoder / decoder --------------------------------------------------

    def encode_layers(self, z: Tensor | np.ndarray) -> list[Tensor | np.ndarray]:
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
        """Run the encoder once, off the tape; the result conditions every decode step."""
        if not parents.all_evaluated:
            raise DataError("encoding requires an evaluated parent population")
        low, span = objective_frame(parents.f)
        memories = self.encode_layers(self.embed(parents.x, parents.f, spec, tape=False))
        return EncodedParents(memories=memories, obj_low=low, obj_span=span)

    def decode(self, y: Tensor, memories: list[Tensor | np.ndarray]) -> Tensor:
        """Masked self-attention, cross-attention into the encoder, then MLP.

        The cross block queries with the self-attention output and adds no
        normalization of its own; the MLP reads LN(cross + self) and the
        residual carries the cross output.
        """
        if len(memories) != len(self.decoder):
            raise ConfigError(
                f"need one encoder memory per decoder layer ({len(self.decoder)}), got {len(memories)}"
            )
        mask = causal_mask(y.shape[-2])
        heads = self.config.heads
        for blk, memory in zip(self.decoder, memories):
            normed = layer_norm(y, blk.ln_self)
            yp = multi_head_attention(normed, normed, normed, blk.self_attn, heads, mask=mask) + y
            cross = multi_head_attention(yp, memory, memory, blk.cross_attn, heads)
            y = mlp_block(layer_norm(cross + yp, blk.ln_mlp), blk.mlp) + cross
        return y

    def decode_next(self, z: np.ndarray, cache: DecoderCache) -> np.ndarray:
        """Decode one embedded (D,) row after the rows already in ``cache``.

        The products of :meth:`decode` for this row, in the same order, on
        1-D rows: per layer one packed product gives the row's
        self-attention query, key and value, the key and value join the
        cache, and the query attends over every cached row (no mask is
        needed, none of them is later); the cross-attention query reads the
        cached memory projections.
        """
        t = cache.length
        if t == cache.keys[0].shape[1]:
            raise CapacityError(f"decoder cache is full at {t} rows")
        heads = self.config.heads
        factor = 1.0 / math.sqrt(self.config.width // heads)
        y = z
        for blk, (w, b), keys, values, (cross_k, cross_v) in zip(
                self.decoder, cache.qkv, cache.keys, cache.values, cache.cross):
            qkv = layer_norm(y, blk.ln_self) @ w + b
            q, keys[:, t], values[:, t] = qkv.reshape(3, heads, -1)
            probs = softmax(q[:, None] @ keys[:, :t + 1].swapaxes(-1, -2), factor=factor)
            yp = linear((probs @ values[:, :t + 1]).reshape(-1), blk.self_attn.out) + y
            p = blk.cross_attn
            q = linear(yp, p.q).reshape(heads, 1, -1)
            probs = softmax(q @ cross_k.swapaxes(-1, -2), factor=factor)
            cross = linear((probs @ cross_v).reshape(-1), p.out)
            y = mlp_block(layer_norm(cross + yp, blk.ln_mlp), blk.mlp) + cross
        cache.length = t + 1
        return y

    def head_activations(self, y: Tensor | np.ndarray) -> Tensor | np.ndarray:
        """Per-position unit-box outputs of width d_hat."""
        return logistic(linear(y, self.head))

    # -- inference ----------------------------------------------------------

    def _decision(self, y: np.ndarray, spec: ProblemSpec, generation: int,
                  step: int) -> np.ndarray:
        """The first d head outputs of the (D,) row ``y``, denormalized to the bounds."""
        unit = self.head_activations(y)[:spec.d]
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
        budget runs out, so a short population, possibly an empty one, means
        the budget ran out. ``n_offspring`` defaults to ``len(parents)``.

        Each step embeds, decodes and heads only the newest member, as one
        row: a :class:`DecoderCache` carries every earlier row's
        self-attention keys and values and the parents' cross-attention keys
        and values, which is exact because rows are normalized in the
        parents' objective frame. The cache is built per call, so it packs
        the weights as they are after any update since the last call.
        Offspring rows are written into arrays preallocated for the target
        size, which may not exceed the model's ``max_seq``. A non-finite
        model output raises :class:`ModelOutputError` naming the generation
        and the decode step.
        """
        n_target = (len(parents) if n_offspring is None
                    else require_count(n_offspring, "n_offspring"))
        spec = problem.spec
        generation = parents.generation_index + 1
        self.config.check_fits(spec.d, spec.m, n_target, "offspring")
        cache = DecoderCache(self, self.encode_parents(parents, spec), n_target)
        x, f, cv = np.empty((n_target, spec.d)), np.empty((n_target, spec.m)), np.empty(n_target)
        x[0] = rng.uniform(spec.lower, spec.upper)
        size = 0
        while size < n_target:
            if size:
                z = self.embed_next(x[size - 1], f[size - 1], spec, cache)
                x[size] = self._decision(self.decode_next(z, cache), spec, generation, size)
            if budget.reserve(1) == 0:
                break
            try:
                f[size], cv[size] = problem.evaluate_solution(x[size])
            except Exception:
                budget.release(1)
                raise
            size += 1
        return Population(x[:size], f[:size], cv[:size], generation)

    # -- training -----------------------------------------------------------

    def forced_loss(self, pairs: Sequence[tuple[Population, Population]],
                    spec: ProblemSpec) -> Tensor:
        """Sum over (parents, targets) pairs of the scalar MSE of the
        decoder's next-solution predictions, in one stacked pass.

        The pairs share one shape, and each is encoded on its own, with its
        decoder context in its own parents' objective frame. The decoder
        consumes the target sequence without its last element (its first
        element plays the initialization-token role, matching generation);
        position k predicts target k+1. Only the first d head outputs enter
        the loss: the goal copies the prediction into its padded columns, so
        their error is exactly 0.
        """
        if not pairs:
            raise DataError("teacher forcing needs at least one pair")
        parents, targets = zip(*pairs)
        if not all(pop.all_evaluated for pop in parents + targets):
            raise DataError("teacher forcing requires evaluated populations")
        shapes = {(p.x.shape, p.f.shape, t.x.shape, t.f.shape) for p, t in pairs}
        if len(shapes) > 1:
            raise DataError(f"stacked pairs disagree in shape: {sorted(shapes)}")
        (_, d), (_, m), (size, d_t), (_, m_t) = next(iter(shapes))
        if size < 2:
            raise DataError("teacher forcing needs a target population of size >= 2")
        if d != d_t or m != m_t:
            raise DataError("parent and target populations disagree in (d, m)")
        parents_x, parents_f = np.stack([p.x for p in parents]), np.stack([p.f for p in parents])
        targets_x, targets_f = np.stack([t.x for t in targets]), np.stack([t.f for t in targets])
        frame = objective_frame(parents_f)
        y = self.decode(self.embed(targets_x[:, :-1], targets_f[:, :-1], spec, frame=frame),
                        self.encode_layers(self.embed(parents_x, parents_f, spec)))
        pred = self.head_activations(y)  # (pairs, size - 1, d_hat)
        goal = pred.data.copy()
        goal[..., :spec.d] = normalize_decision(targets_x[:, 1:], spec)
        diff = sub(pred, const(goal))
        return scale(sum_all(mul(diff, diff)), 1.0 / ((size - 1) * spec.d))


def teacher_forced_loss(model: PopulationTransformer,
                        pairs: Sequence[tuple[Population, Population]],
                        spec: ProblemSpec) -> float:
    """Run one stacked forward/backward pass over ``pairs``; gradients of
    the summed loss accumulate on the model. Returns that sum."""
    with Tape() as tape:
        loss = model.forced_loss(pairs, spec)
    tape.backward(loss)
    return loss.item()


# -- checkpoint io ----------------------------------------------------------

def save_checkpoint(model: PopulationTransformer, path) -> None:
    """Binary format: magic, u32 version, length-prefixed config JSON, then
    every parameter in declaration order as u32 rank, u32 extents, f64 data,
    and last a u32 CRC-32 of all the bytes before it."""
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
    blob += struct.pack("<I", zlib.crc32(blob))
    with open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path) -> PopulationTransformer:
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
    try:
        config = ModelConfig.from_json(bytes(take(cfg_len, "config")).decode("utf-8"))
    except (UnicodeDecodeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: bad model config: {exc}") from exc
    if len(view) < offset + 4:
        raise CheckpointError(f"{path}: truncated while reading the checksum")
    view, (crc,) = view[:-4], struct.unpack("<I", view[-4:])
    if zlib.crc32(view) != crc:
        raise CheckpointError(f"{path}: checksum mismatch, the file is corrupt")
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
