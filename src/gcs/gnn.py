"""ReLU generative networks: forward pass, bias augmentation, difference
networks, region-count bounds, and gradients of the recovery objective.

G(z) = W^(d) relu(... relu(W^(1) z)), optionally with biases and a final
sigmoid. The ReLU subgradient at 0 is taken to be 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError, NoBiases, Unsupported
from .linops import check_finite, load_json, matrix_from_json, matrix_to_json, write_json
from .sampling import SubsampledIsometry, apply, apply_adjoint


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # Split by sign to avoid overflow in exp.
    out = np.empty_like(x, dtype=float) if out is None else out
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def check_widths(widths) -> None:
    """Raise DimensionMismatch unless widths [k, k_1, ..., n] can make a
    network: at least one layer, code dimension k >= 2, inner widths >= k."""
    if len(widths) < 2:
        raise DimensionMismatch(f"widths {list(widths)}: a network needs at least one layer")
    k = widths[0]
    if k < 2:
        raise DimensionMismatch(f"widths {list(widths)}: code dimension must be >= 2")
    if any(w < k for w in widths[1:-1]):
        raise DimensionMismatch(f"widths {list(widths)}: inner widths must be >= code dimension")


@dataclass(frozen=True)
class GenerativeNetwork:
    weights: list = field(repr=False)  # W^(i) of shape k_i x k_{i-1}
    biases: list | None = field(default=None, repr=False)
    final_activation: str = "none"  # "none" | "sigmoid"

    def __post_init__(self):
        ws = [check_finite(np.asarray(w, dtype=float), "weight") for w in self.weights]
        object.__setattr__(self, "weights", ws)
        for w, v in zip(ws, ws[1:]):
            if v.shape[1] != w.shape[0]:
                raise DimensionMismatch(f"layer shape chain broken at {v.shape}")
        check_widths(self.widths if ws else [])
        if self.biases is not None:
            bs = [check_finite(np.asarray(b, dtype=float), "bias") for b in self.biases]
            if len(bs) != len(ws):
                raise DimensionMismatch("need one bias per layer")
            for b, w in zip(bs, ws):
                if b.shape != (w.shape[0],):
                    raise DimensionMismatch("bias length must match layer width")
            object.__setattr__(self, "biases", bs)
        if self.final_activation not in ("none", "sigmoid"):
            raise DomainError(f"unknown final activation {self.final_activation!r}")

    @property
    def widths(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def code_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.weights[-1].shape[0]


def _layer(g: GenerativeNetwork, i: int, h: np.ndarray) -> np.ndarray:
    """W^(i+1) h plus its bias, before any activation."""
    h = g.weights[i] @ h
    if g.biases is not None:
        b = g.biases[i]
        h = h + (b if h.ndim == 1 else b[:, None])
    return h


def hidden(g: GenerativeNetwork, z: np.ndarray) -> np.ndarray:
    """The last hidden layer relu(... relu(W^(1) z)), or z itself at depth 1.

    z may be (k,) or (k, batch); G(z) is the final layer applied to this.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[0] != g.code_dim:
        raise DimensionMismatch(f"code dim {g.code_dim}, got {z.shape[0]}")
    h = z
    for i in range(g.depth - 1):
        h = relu(_layer(g, i, h))
    return h


def forward(g: GenerativeNetwork, z: np.ndarray) -> np.ndarray:
    """Evaluate G(z). z may be (k,) or (k, batch)."""
    h = _layer(g, g.depth - 1, hidden(g, z))
    if g.final_activation == "sigmoid":
        h = sigmoid(h)
    return h


def augment_biases(g: GenerativeNetwork) -> GenerativeNetwork:
    """Fold biases into augmented weight matrices; code dimension grows by 1.

    forward(g, z) == forward(augmented, [z; 1]) for all z.
    """
    if g.biases is None:
        raise NoBiases("network has no biases to augment")
    d = g.depth
    new_weights = []
    for i, (w, b) in enumerate(zip(g.weights, g.biases)):
        top = np.hstack([w, b[:, None]])
        if i == d - 1:
            new_weights.append(top)
        else:
            bottom = np.zeros((1, w.shape[1] + 1))
            bottom[0, -1] = 1.0
            new_weights.append(np.vstack([top, bottom]))
    return GenerativeNetwork(weights=new_weights, biases=None, final_activation=g.final_activation)


def difference_network(g: GenerativeNetwork) -> GenerativeNetwork:
    """Network Gbar on R^(2k) with Gbar([x; y]) = G(x) - G(y).

    Inner weights become blockdiag(W, W); the final layer is [W^(d), -W^(d)].
    Only defined for bias-free, linear-final networks.
    """
    if g.biases is not None or g.final_activation != "none":
        raise Unsupported("difference network requires no biases and linear final layer")
    d = g.depth
    new_weights = []
    for i, w in enumerate(g.weights):
        if i == d - 1:
            new_weights.append(np.hstack([w, -w]))
        else:
            r, c = w.shape
            blk = np.zeros((2 * r, 2 * c))
            blk[:r, :c] = w
            blk[r:, c:] = w
            new_weights.append(blk)
    return GenerativeNetwork(weights=new_weights)


def log_region_bound(widths: list[int]) -> float:
    """log N <= k * sum_{i=1}^{d-1} log(2e*k_i/k), the cone-count bound."""
    if len(widths) < 2:
        raise DomainError("width chain needs at least input and output")
    k = widths[0]
    inner = widths[1:-1]
    return float(k * sum(math.log(2 * math.e * ki / k) for ki in inner))


def orthant_bound(n: int, k: int) -> int:
    """2^k * C(n, k): orthants a k-dim subspace of R^n can intersect (exact int)."""
    if k < 1 or k > n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    return (2**k) * math.comb(n, k)


def objective_value_grad(
    g: GenerativeNetwork, a: SubsampledIsometry, b: np.ndarray, z: np.ndarray
) -> tuple[float, np.ndarray]:
    """Value and gradient of 0.5*||A G(z) - b||_2^2 over the latent z.

    The gradient is the real part of the adjoint pullback A^*(A G(z) - b)
    backpropagated through the network.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (g.code_dim,):
        raise DimensionMismatch(f"latent must have shape ({g.code_dim},)")
    d = g.depth
    h = z
    pre = []  # preactivations of inner layers, plus final layer output
    for i, w in enumerate(g.weights):
        h = w @ h
        if g.biases is not None:
            h = h + g.biases[i]
        pre.append(h)
        if i < d - 1:
            h = relu(h)
    y = pre[-1]
    x = sigmoid(y) if g.final_activation == "sigmoid" else y
    r = apply(a, x) - np.asarray(b)
    value = 0.5 * float(np.real(np.vdot(r, r)))
    s = np.real(apply_adjoint(a, r))
    if g.final_activation == "sigmoid":
        s = s * x * (1.0 - x)
    for i in range(d - 1, -1, -1):
        s = g.weights[i].T @ s
        if i > 0:
            s = s * (pre[i - 1] > 0)
    return value, s


def network_to_json(g: GenerativeNetwork) -> dict:
    layers = []
    for i, w in enumerate(g.weights):
        layer = matrix_to_json(w)
        if g.biases is not None:
            layer["bias"] = g.biases[i].tolist()
        layers.append(layer)
    return {"widths": g.widths, "final_activation": g.final_activation, "layers": layers}


def network_from_json(obj: dict) -> GenerativeNetwork:
    weights = [matrix_from_json(layer) for layer in obj["layers"]]
    biases = None
    if any("bias" in layer for layer in obj["layers"]):
        biases = [np.asarray(layer["bias"], dtype=float) for layer in obj["layers"]]
    return GenerativeNetwork(
        weights=weights, biases=biases, final_activation=obj.get("final_activation", "none")
    )


def save_network(g: GenerativeNetwork, path: str) -> None:
    write_json(network_to_json(g), path)


def load_network(path: str) -> GenerativeNetwork:
    return load_json(path, network_from_json)
