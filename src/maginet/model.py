"""The mask-aware graph imputation network.

Pipeline per forward pass: a mask-aware encoder embeds observed values
and substitutes a learnable missing embedding elsewhere; a stack of
spatio-temporal blocks runs masked temporal self-attention (with scores
accumulated residually across blocks), derives node-level spatial
attention from a temporally collapsed summary, aggregates the block
input through attention-modulated Chebyshev graph convolution, and
refines along time with gated convolutions; block outputs are summed and
projected back to feature space by a two-layer head.

The output is bit-invariant to values stored at unobserved positions in
both masking modes, because the encoder reads the input only as
``x * m3``. Masked keys receive exactly zero attention weight only in
the default ``neg_inf`` mode; the literal multiplicative masking of the
scores is kept as ``mask_mode="multiply"``.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import IncompleteWindow, Normalizer, json_settings, mean_filled, text_file, text_lines
from .errors import ContractError, InputError, MagiNetError
from .graph import ChebyshevBasis, TrafficGraph, build_basis

CHECKPOINT_VERSION = 2

# Paper-style variant names accepted by the ablation runner / CLI, and
# the ModelConfig toggle of each.
VARIANT_TOGGLES = {
    "zero prefill": "zero_prefill",
    "mean prefill": "mean_prefill",
    "w/o AMSTenc": "no_amstenc",
    "w/o MASTatt": "no_mastatt",
    "w/o Graphconv": "no_graphconv",
    "w/o GTconv": "no_gtconv",
    "w/o MASTdec": "no_mastdec",
}
ABLATIONS = tuple(VARIANT_TOGGLES.values())


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters and ablation toggles."""

    d: int = 16                      # hidden size
    heads: int = 3                   # attention heads
    head_dim: int = 0                # per-head size; 0 means max(1, d // heads)
    spatial_dim: int = 16            # node-embedding size for spatial attention
    cheb_order: int = 3              # Chebyshev polynomial order
    kernel_sizes: tuple[int, ...] = (3, 5)   # gated temporal conv widths
    blocks: int = 2                  # stacked spatio-temporal blocks
    spatial_kernel: int = 3          # width of the temporal-collapse conv
    mask_mode: str = "neg_inf"       # neg_inf | multiply
    ablations: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if min(self.d, self.heads, self.spatial_dim, self.cheb_order, self.blocks) < 1:
            raise ContractError("d, heads, spatial_dim, cheb_order and blocks must all be >= 1")
        if self.head_dim < 0:
            raise ContractError(f"head_dim must be >= 0, got {self.head_dim}")
        if not self.kernel_sizes:
            raise ContractError("kernel_sizes must be nonempty")
        if any(k < 1 or k % 2 == 0 for k in self.kernel_sizes):
            raise ContractError(f"kernel sizes must be odd and positive, got {self.kernel_sizes}")
        if self.spatial_kernel < 1:
            raise ContractError("spatial_kernel must be >= 1")
        if self.mask_mode not in ("neg_inf", "multiply"):
            raise ContractError(f"mask_mode must be neg_inf or multiply, got {self.mask_mode!r}")
        object.__setattr__(self, "kernel_sizes", tuple(int(k) for k in self.kernel_sizes))
        unknown = set(self.ablations) - set(ABLATIONS)
        if unknown:
            raise ContractError(f"unknown ablation toggles: {sorted(unknown)}")
        object.__setattr__(self, "ablations", frozenset(self.ablations))

    @property
    def dh(self) -> int:
        return self.head_dim if self.head_dim else max(1, self.d // self.heads)

    def with_ablations(self, *names: str) -> "ModelConfig":
        return ModelConfig(**{**self.to_dict(), "ablations": frozenset(names)})

    def to_dict(self) -> dict:
        out = asdict(self)
        out["ablations"] = sorted(self.ablations)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        # __post_init__ turns the JSON lists into a tuple and a frozenset
        return cls(**json_settings(raw, cls().to_dict(), "model config"))


class ModelParams:
    """Named learnable tensors; the set is a pure function of (config, N, W, C)."""

    def __init__(self, tensors: dict[str, Tensor]):
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def names(self) -> list[str]:
        return list(self.tensors)

    @property
    def n_parameters(self) -> int:
        return sum(t.size for t in self.tensors.values())

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.zero_grad()

    def state(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.tensors.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        missing = [n for n in self.tensors if n not in state]
        extra = [n for n in state if n not in self.tensors]
        bad_shape = [
            n for n in self.tensors
            if n in state and np.asarray(state[n]).shape != self.tensors[n].shape
        ]
        if missing or extra or bad_shape:
            raise InputError(
                "checkpoint does not match model: "
                f"missing={missing} extra={extra} shape_mismatch={bad_shape}"
            )
        for name, t in self.tensors.items():
            t.data = np.array(state[name], dtype=np.float64)

    @classmethod
    def initialize(cls, config: ModelConfig, n_nodes: int, width: int, n_features: int,
                   seed: int) -> "ModelParams":
        rng = np.random.default_rng(seed)
        d, dh, f = config.d, config.dh, config.spatial_dim
        tensors: dict[str, Tensor] = {}

        def weight(name: str, *shape: int, fan_in: int | None = None):
            fan = fan_in if fan_in is not None else shape[0]
            bound = 1.0 / math.sqrt(max(1, fan))
            tensors[name] = ad.parameter(rng.uniform(-bound, bound, shape))

        def zeros(name: str, *shape: int):
            tensors[name] = ad.parameter(np.zeros(shape))

        def embedding(name: str, *shape: int):
            tensors[name] = ad.parameter(rng.normal(0.0, 0.02, shape))

        def ln(name: str):
            tensors[f"{name}.gain"] = ad.parameter(np.ones(d))
            tensors[f"{name}.bias"] = ad.parameter(np.zeros(d))

        weight("encoder.w_obs", n_features, d)
        zeros("encoder.b_obs", d)
        embedding("encoder.missing_embed", n_nodes, width, d)
        embedding("encoder.pos_time", width, d)
        embedding("pos_space", n_nodes, f)
        for b in range(config.blocks):
            p = f"block{b}"
            for h in range(config.heads):
                weight(f"{p}.attn.q{h}", d, dh)
                weight(f"{p}.attn.k{h}", d, dh)
                weight(f"{p}.attn.v{h}", d, dh)
            weight(f"{p}.attn.w_ctx", config.heads * dh, d)
            zeros(f"{p}.attn.b_ctx", d)
            ln(f"{p}.attn.ln")
            weight(f"{p}.collapse.kernel", config.spatial_kernel, d, d,
                   fan_in=config.spatial_kernel * d)
            zeros(f"{p}.collapse.bias", d)
            weight(f"{p}.collapse.w_proj", d, f)
            zeros(f"{p}.collapse.b_proj", f)
            for h in range(config.heads):
                weight(f"{p}.spatial.q{h}", f, dh, fan_in=f)
                weight(f"{p}.spatial.k{h}", f, dh, fan_in=f)
            for k in range(config.cheb_order):
                weight(f"{p}.cheb.theta{k}", d, d)
            for i, ksize in enumerate(config.kernel_sizes):
                weight(f"{p}.gate{i}.kernel", ksize, d, 2 * d, fan_in=ksize * d)
                zeros(f"{p}.gate{i}.bias", 2 * d)
            weight(f"{p}.merge_gates.w", len(config.kernel_sizes) * d, d)
            zeros(f"{p}.merge_gates.b", d)
            weight(f"{p}.merge_skip.w", 2 * d, d)
            zeros(f"{p}.merge_skip.b", d)
            ln(f"{p}.ln_out")
        weight("head.w1", d, d)
        zeros("head.b1", d)
        weight("head.w2", d, n_features)
        zeros("head.b2", n_features)
        if "no_mastdec" in config.ablations:
            weight("linear_head.w", d, n_features)
            zeros("linear_head.b", n_features)
        return cls(tensors)


# -- forward pieces ---------------------------------------------------------
#
# Every piece takes an optional leading batch axis: features (N, W, ...)
# for one window or (B, N, W, ...) for a stack of windows, the mask
# shaped like the features without their last axis. The prefill means
# the ablations use stay per window.
#
# Under no_grad only a name keeps an intermediate alive, so the pieces
# ``del`` large ones once used and compute per head what they can: the
# heap an N=207 pass grows, which glibc returns after the pass and
# page-faults back in on the next, stays small, and so does what each
# worker process of ``training.predict_windows`` holds: one pass, on one
# process per usable CPU at 91 nodes and up, in the caller's process below.


def _permute(t: Tensor, *core: int) -> Tensor:
    """Transpose the trailing axes of ``t`` by ``core``; leading axes stay."""
    lead = t.ndim - len(core)
    return ad.transpose(t, tuple(range(lead)) + tuple(lead + i for i in core))


def _head_weights(params: ModelParams, prefix: str, kind: str, heads: int) -> Tensor:
    """One kind's per-head (d_in, dh) weights stacked as (heads, d_in, dh)."""
    per_head = [params[f"{prefix}.{kind}{head}"] for head in range(heads)]
    return ad.reshape(ad.concat(per_head, axis=0), (heads, *per_head[0].shape))


def _scores(x: Tensor, params: ModelParams, prefix: str, config: ModelConfig) -> Tensor:
    """Scaled dot-product scores (..., heads, rows, rows) of x (..., rows, d_in).

    Every head's queries and keys come from one batched product each,
    straight in the (..., heads, rows, dh) layout the score product reads.
    """
    heads, dh = config.heads, config.dh
    x1 = ad.reshape(x, (*x.shape[:-2], 1, *x.shape[-2:]))   # a heads axis to broadcast over
    q = ad.matmul(x1, _head_weights(params, prefix, "q", heads) * (1.0 / math.sqrt(dh)))
    k = ad.matmul(x1, _head_weights(params, prefix, "k", heads))
    return ad.matmul(q, _permute(k, 0, 2, 1))


def _prefill(x: np.ndarray, m: np.ndarray, mode: str) -> np.ndarray:
    """x with its unobserved entries zeroed or mean-filled (the pre-filling
    the default encoder exists to avoid; kept for the ablation variants)."""
    return x * m[..., None] if mode == "zero" else mean_filled(x, m)


def amst_encode(x: np.ndarray, m: np.ndarray, params: ModelParams, config: ModelConfig) -> Tensor:
    """Embed observations, substitute the missing embedding, add time positions.

    The output never depends on values stored at m = 0 positions.
    """
    if np.isnan(x[m == 1.0]).any():
        raise InputError("NaN at an observed position; convert NaNs to masked entries upstream")
    m3 = m[..., None]
    if "no_amstenc" in config.ablations:
        return ad.matmul(ad.constant(x * m3), params["encoder.w_obs"]) + params["encoder.b_obs"]
    if "zero_prefill" in config.ablations or "mean_prefill" in config.ablations:
        mode = "zero" if "zero_prefill" in config.ablations else "mean"
        filled = _prefill(x, m, mode)
        x_p = ad.matmul(ad.constant(filled), params["encoder.w_obs"]) + params["encoder.b_obs"]
    else:
        x_o = ad.matmul(ad.constant(x * m3), params["encoder.w_obs"]) + params["encoder.b_obs"]
        x_p = x_o * m3 + params["encoder.missing_embed"] * (1.0 - m3)
    return x_p + params["encoder.pos_time"]


def temporal_attention(h: Tensor, m: np.ndarray, a_prev: Tensor | None, params: ModelParams,
                       config: ModelConfig, block: int,
                       internals: dict | None = None) -> tuple[Tensor, Tensor | None]:
    """Masked multi-head self-attention along time, per node.

    Scores (..., N, heads, W, W) accumulate across blocks through
    ``a_prev`` (None in the first block); keys at m = 0 get exactly zero
    weight (neg_inf mode). A query whose keys are all masked receives
    zero context, so the residual passes the input through. Each of q, k
    and v is one batched product over all heads. Returns the block's
    output and its accumulated scores, or None for the scores in the
    last block, where no later block reads them.
    """
    *lead, n, width, d = h.shape
    p = f"block{block}"
    heads, dh = config.heads, config.dh
    a_new = _scores(h, params, f"{p}.attn", config)
    if a_prev is not None:
        a_new = a_new + a_prev
    key_mask = m[..., None, None, :]                      # (..., N, 1, 1, W)
    if config.mask_mode == "neg_inf":
        weights = ad.masked_softmax(a_new, key_mask)
    else:
        weights = ad.masked_softmax(a_new * key_mask)
    if internals is not None:
        internals.setdefault("temporal_weights", []).append(weights.data.copy())
        internals.setdefault("temporal_scores", []).append(a_new.data.copy())
    if block + 1 == config.blocks:
        a_new = None
    v = ad.matmul(ad.reshape(h, (*lead, n, 1, width, d)),
                  _head_weights(params, f"{p}.attn", "v", heads))   # (..., N, heads, W, dh)
    context = ad.matmul(weights, v)
    del weights, v
    context = _permute(context, 0, 2, 1, 3)               # (..., N, W, heads, dh)
    mixed = ad.matmul(ad.reshape(context, (*lead, n, width, heads * dh)), params[f"{p}.attn.w_ctx"])
    del context
    mixed = mixed + params[f"{p}.attn.b_ctx"] + h
    return ad.layer_norm(mixed, params[f"{p}.attn.ln.gain"], params[f"{p}.attn.ln.bias"]), a_new


def spatial_attention(h_matt: Tensor, params: ModelParams, config: ModelConfig, block: int,
                      internals: dict | None = None) -> list[Tensor]:
    """Node-level attention from a temporally collapsed summary.

    Collapse = same-padded conv along time, mean pool over the window,
    linear map to the node-embedding size, plus the spatial positions.
    Returns one (..., N, N) tensor per head, computed one head at a time;
    under no_mastatt every head is 1/N throughout.
    """
    *lead, n, width, d = h_matt.shape
    p = f"block{block}"
    heads, scale = config.heads, 1.0 / math.sqrt(config.dh)
    if "no_mastatt" in config.ablations:
        flat = ad.constant(np.full((*lead, n, n), 1.0 / n))
        s_heads = [flat for _ in range(heads)]
    else:
        # The time mean of a same-padded conv is the "valid" conv of its K
        # taps' window means: tap k reads steps k - pad .. k - pad + W - 1.
        taps, pad = config.spatial_kernel, (config.spatial_kernel - 1) // 2
        means = np.zeros((taps, width))
        for tap in range(taps):
            means[tap, max(0, tap - pad):min(width, width + tap - pad)] = 1.0 / width
        z = ad.conv1d_time(ad.matmul(ad.constant(means), h_matt), params[f"{p}.collapse.kernel"],
                           "valid", params[f"{p}.collapse.bias"])
        z = ad.matmul(ad.reshape(z, (*lead, n, d)), params[f"{p}.collapse.w_proj"])
        z = z + params[f"{p}.collapse.b_proj"] + params["pos_space"]
        s_heads = []
        for head in range(heads):
            q = ad.matmul(z, params[f"{p}.spatial.q{head}"] * scale)
            k = ad.matmul(z, params[f"{p}.spatial.k{head}"])
            s_heads.append(ad.masked_softmax(ad.matmul(q, _permute(k, 1, 0))))   # (..., N, N)
    if internals is not None:
        internals.setdefault("spatial_weights", []).append(
            np.stack([head.data for head in s_heads], axis=-3))
    return s_heads


def graph_conv(h: Tensor, s_heads: list[Tensor], basis: ChebyshevBasis, params: ModelParams,
               config: ModelConfig, block: int) -> Tensor:
    """Chebyshev aggregation of the block input, modulated by attention.

    Order k uses T_k(L~) elementwise-weighted by spatial-attention head
    (k mod heads), then its own d x d channel mixer. ``basis`` comes from
    ``graph.chebyshev_basis``, whose T_0 is the identity. Each entry of
    ``s_heads`` is set to None after the last order that reads it, so a
    gradient-free pass holds fewer N x N arrays as it goes.
    """
    if basis.order < 1:
        raise ContractError("graph convolution needs a Chebyshev basis of order >= 1")
    *lead, n, width, d = h.shape
    p = f"block{block}"
    h_flat = ad.reshape(h, (*lead, n, width * d))
    out = None
    for k in range(basis.order):
        s = s_heads[k % config.heads]
        if k + config.heads >= basis.order:
            s_heads[k % config.heads] = None
        if k == 0:
            # (T_0 o S) h with T_0 = I scales the rows of h by diag(S)
            diag = ad.masked_select(s, np.broadcast_to(basis.matrices[0], s.shape))
            aggregated = ad.reshape(diag, (*lead, n, 1)) * h_flat
        else:
            aggregated = ad.matmul(s * basis.matrices[k], h_flat)
        del s
        term = ad.matmul(ad.reshape(aggregated, (*lead, n, width, d)), params[f"{p}.cheb.theta{k}"])
        del aggregated
        out = term if out is None else out + term
        del term
    return out


def gated_temporal_conv(e: Tensor, h: Tensor, params: ModelParams, config: ModelConfig,
                        block: int, internals: dict | None = None) -> Tensor:
    """Multi-scale tanh/sigmoid gated convolutions along time.

    The gated branches concatenate, project back to d channels, and
    residual-add onto the graph-conv output; the block then re-attaches
    its input through a second projected skip before layer norm.
    """
    p = f"block{block}"
    gated = "no_gtconv" not in config.ablations
    if gated:
        cat = ad.concat([ad.tanh_sigmoid_gate(ad.conv1d_time(e, params[f"{p}.gate{i}.kernel"], "same",
                                                             params[f"{p}.gate{i}.bias"]))
                         for i in range(len(config.kernel_sizes))], axis=-1)
        merged = ad.matmul(cat, params[f"{p}.merge_gates.w"])
        del cat
        e_out = ad.relu(merged + params[f"{p}.merge_gates.b"] + e)
        del merged
    else:
        e_out = e
    if internals is not None:
        internals.setdefault("conv_residual", []).append(e_out.data.copy())
    # relu(concat([e_out, h])), rectifying only what is not a relu output yet
    skip = ad.concat([e_out if gated else ad.relu(e_out), ad.relu(h)], axis=-1)
    del e_out
    skip = ad.matmul(skip, params[f"{p}.merge_skip.w"]) + params[f"{p}.merge_skip.b"]
    return ad.layer_norm(skip, params[f"{p}.ln_out.gain"], params[f"{p}.ln_out.bias"])


def forward(x: np.ndarray, m: np.ndarray, params: ModelParams, config: ModelConfig,
            basis: ChebyshevBasis, internals: dict | None = None) -> Tensor:
    """Impute a window, (N, W, C) features + (N, W) mask -> (N, W, C), or a
    stack of windows, (B, N, W, C) + (B, N, W) -> (B, N, W, C).

    Each window of a stack gets the output it would get alone; the
    ``internals`` entries gain the same leading axis.
    """
    x = np.asarray(x, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if x.ndim not in (3, 4):
        raise ContractError(f"features must be (N, W, C) or (B, N, W, C), got shape {x.shape}")
    n_nodes, width, n_feat = x.shape[-3:]
    zu = params["encoder.missing_embed"]
    if zu.shape[0] != n_nodes or zu.shape[1] != width or params["encoder.w_obs"].shape[0] != n_feat:
        raise ContractError(
            f"window shape ({n_nodes}, {width}, {n_feat}) does not match parameters sized for "
            f"({zu.shape[0]}, {zu.shape[1]}, {params['encoder.w_obs'].shape[0]})"
        )
    if m.shape != x.shape[:-1]:
        raise ContractError(f"mask shape {m.shape} does not match window {x.shape[:-1]}")
    h = amst_encode(x, m, params, config)
    if "no_mastdec" in config.ablations:
        return ad.matmul(h, params["linear_head.w"]) + params["linear_head.b"]
    # Each block consumes the previous block's output (block 0 sees the
    # encoder output); the accumulated temporal-attention scores chain
    # alongside. Within a block the graph convolution aggregates the
    # block input itself, not the attention context, whose job is to
    # shape the aggregation weights. Each intermediate is released as
    # soon as the block is done with it. Under no_mastatt the spatial
    # weights are flat, so no temporal attention runs.
    scores = None
    total = None
    for b in range(config.blocks):
        h_matt = h
        if "no_mastatt" not in config.ablations:
            h_matt, scores = temporal_attention(h, m, scores, params, config, b, internals)
        s_heads = spatial_attention(h_matt, params, config, b, internals)
        del h_matt
        if "no_graphconv" in config.ablations:
            e = h
        else:
            e = graph_conv(h, s_heads, basis, params, config, b)
        del s_heads
        h = gated_temporal_conv(e, h, params, config, b, internals)
        del e
        total = h if total is None else total + h
    hidden = ad.relu(ad.matmul(total, params["head.w1"]) + params["head.b1"])
    return ad.matmul(hidden, params["head.w2"]) + params["head.b2"]


# -- bundled model -----------------------------------------------------------


class MagiNet:
    """Config + parameters + spectral basis, ready to impute windows."""

    def __init__(self, config: ModelConfig, graph: TrafficGraph, width: int, n_features: int,
                 seed: int = 0, normalizer: Normalizer | None = None):
        self.config = config
        self.graph = graph
        self.width = width
        self.n_features = n_features
        self.seed = seed
        self.basis = build_basis(graph, config.cheb_order)
        self.params = ModelParams.initialize(config, graph.n_nodes, width, n_features, seed)
        self.normalizer = normalizer

    def forward(self, x: np.ndarray, m: np.ndarray, internals: dict | None = None) -> Tensor:
        return forward(x, m, self.params, self.config, self.basis, internals)

    def predict(self, windows: list[IncompleteWindow]) -> np.ndarray:
        """Imputed windows in original units, (B, N, W, C), from one
        gradient-free forward pass over their stack."""
        x = np.stack([w.x for w in windows])
        m = np.stack([w.m for w in windows])
        if self.normalizer is not None:
            x = np.where(m[..., None] == 1.0, self.normalizer.transform(x), 0.0)
        with ad.no_grad():
            out = self.forward(x, m).data
        if self.normalizer is not None:
            out = self.normalizer.inverse(out)
        return out


# -- checkpointing -----------------------------------------------------------


# A parameter tensor is stored as {"shape": [...], "data": base64 of its
# C-order little-endian float64 bytes}: bit-exact, and about half the size
# of the values spelled as JSON numbers.


def _encode(a: np.ndarray) -> str:
    return base64.b64encode(np.asarray(a, dtype="<f8").tobytes(order="C")).decode("ascii")


def _decode(entry: dict) -> np.ndarray:
    raw = base64.b64decode(entry["data"], validate=True)
    shape = entry["shape"]
    if len(raw) != math.prod(shape) * 8:
        raise ValueError(f"{len(raw)} data bytes do not fit shape {shape}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def _decode_normalizer(stats: dict, n_features: int) -> Normalizer:
    """``n_features`` finite means and as many finite, positive stds."""
    arrays = {}
    for key in ("mean", "std"):
        values = stats[key]
        if not (isinstance(values, list) and len(values) == n_features
                and all(type(v) in (int, float) and math.isfinite(v) for v in values)):
            raise ValueError(f"normalizer {key} must be a list of {n_features} finite numbers")
        arrays[key] = np.array(values, dtype=np.float64)
    if not (arrays["std"] > 0).all():
        raise ValueError("normalizer std must be positive")
    return Normalizer(**arrays)


def save_checkpoint(path, model: MagiNet, comment: str | None = None) -> None:
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "width": model.width,
        "n_features": model.n_features,
        "seed": model.seed,
        "normalizer": None if model.normalizer is None else {
            "mean": model.normalizer.mean.tolist(),
            "std": model.normalizer.std.tolist(),
        },
        "params": {name: {"shape": list(t.shape), "data": _encode(t.data)}
                   for name, t in model.params.items()},
    }
    with text_file(path, comment) as handle:
        json.dump(payload, handle)
        handle.write("\n")


# the checkpoint's integer settings; json_settings reads only the type of each value
_SETTINGS = dict.fromkeys(("format_version", "width", "n_features", "seed"), 0)


def load_checkpoint(path, graph: TrafficGraph) -> MagiNet:
    body = "\n".join(text_lines(path))
    try:
        payload = json.loads(body)
        settings = json_settings({key: value for key, value in payload.items() if key in _SETTINGS},
                                 _SETTINGS, "checkpoint")
        if settings.get("format_version") != CHECKPOINT_VERSION:
            raise InputError(f"unsupported checkpoint version {payload.get('format_version')!r} "
                             f"(this maginet reads version {CHECKPOINT_VERSION})")
        geometry = {key: settings[key] for key in ("width", "n_features", "seed")}
        normalizer = None
        if payload.get("normalizer"):
            normalizer = _decode_normalizer(payload["normalizer"], geometry["n_features"])
        state = {name: _decode(entry) for name, entry in payload["params"].items()}
        model = MagiNet(ModelConfig.from_dict(payload["config"]), graph, normalizer=normalizer,
                        **geometry)
        model.params.load_state(state)
    # bad JSON or base64 (a ValueError), a wrong type or value, a missing key, or a model
    # it does not fit
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError, MagiNetError) as err:
        reason = f"no key {err}" if isinstance(err, KeyError) else str(err)
        raise InputError(f"{path}: not a valid checkpoint: {reason}") from None
    return model
