"""ReLU generative networks: forward pass, bias augmentation, difference
networks, region-count bounds, and gradients of the recovery objective.

G(z) = W^(d) relu(... relu(W^(1) z)), optionally with biases; the final layer
is linear. The ReLU subgradient at 0 is taken to be 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError
from .linops import check_finite, load_json, matrix_from_json, matrix_to_json, write_json
from .sampling import SubsampledIsometry, apply, apply_adjoint, check_measurement


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # With t = exp(-|x|), which never overflows: 1 / (1 + t) for x >= 0,
    # t / (1 + t) below.
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, t) / (1.0 + t)


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


def _real(a, name: str) -> np.ndarray:
    """a as a finite float array, the array itself when it already is one
    (layers are shared by identity); DomainError names a complex a."""
    if np.iscomplexobj(a):
        raise DomainError(f"{name} contains complex entries; a network is real")
    return check_finite(np.asarray(a, dtype=float), name)


@dataclass(frozen=True)
class GenerativeNetwork:
    weights: list = field(repr=False)  # W^(i) of shape k_i x k_{i-1}
    biases: list | None = field(default=None, repr=False)

    def __post_init__(self):
        ws = [_real(w, "weight") for w in self.weights]
        object.__setattr__(self, "weights", ws)
        for w, v in zip(ws, ws[1:]):
            if v.shape[1] != w.shape[0]:
                raise DimensionMismatch(f"layer shape chain broken at {v.shape}")
        check_widths(self.widths if ws else [])
        if self.biases is not None:
            bs = [_real(b, "bias") for b in self.biases]
            if len(bs) != len(ws):
                raise DimensionMismatch("need one bias per layer")
            for b, w in zip(bs, ws):
                if b.shape != (w.shape[0],):
                    raise DimensionMismatch("bias length must match layer width")
            object.__setattr__(self, "biases", bs)

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
    return _layer(g, g.depth - 1, hidden(g, z))


def augment_biases(g: GenerativeNetwork) -> GenerativeNetwork:
    """Fold biases into augmented weight matrices; code dimension grows by 1.

    forward(g, z) == forward(augmented, [z; 1]) for all z.
    """
    if g.biases is None:
        raise DomainError("network has no biases to augment")
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
    return GenerativeNetwork(weights=new_weights)


def difference_network(g: GenerativeNetwork) -> GenerativeNetwork:
    """Network Gbar on R^(2k) with Gbar([x; y]) = G(x) - G(y).

    Inner weights become blockdiag(W, W); the final layer is [W^(d), -W^(d)].
    Only defined for bias-free networks.
    """
    if g.biases is not None:
        raise DomainError("difference network requires no biases")
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

    A is real (see `sampling.rows`), so the gradient is the pullback
    A^T (A G(z) - b) backpropagated through the network.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (g.code_dim,):
        raise DimensionMismatch(f"latent must have shape ({g.code_dim},)")
    pre = [_layer(g, 0, z)]  # preactivations of inner layers, plus final layer output
    for i in range(1, g.depth):
        pre.append(_layer(g, i, relu(pre[-1])))
    r = apply(a, pre[-1]) - check_measurement(a, b)
    value = 0.5 * float(r @ r)
    s = apply_adjoint(a, r)
    for i in range(g.depth - 1, -1, -1):
        s = g.weights[i].T @ s
        if i > 0:
            s = s * (pre[i - 1] > 0)
    return value, s


def network_to_json(g: GenerativeNetwork) -> dict:
    layers = []
    for i, w in enumerate(g.weights):
        layer = matrix_to_json(w)
        if g.biases is not None:
            layer["bias"] = g.biases[i]
        layers.append(layer)
    # The key is constant: every network's final layer is linear.
    return {"widths": g.widths, "final_activation": "none", "layers": layers}


def stored_widths(obj: dict) -> list:
    """The "widths" of a network object, as network_to_json writes it, after
    check_widths. Its "final_activation", where present, must be "none".
    Weight and model files both read their network's widths here."""
    final = obj.get("final_activation", "none")
    if final != "none":
        raise DomainError(f"final activation {final!r}: every network's final layer is linear "
                          "(\"none\")")
    widths = obj["widths"]
    check_widths(widths)
    return widths


def network_from_json(obj: dict) -> GenerativeNetwork:
    """The network of a network_to_json object, whose "widths" must be the
    ones its layers give."""
    layers = obj["layers"]
    weights = [matrix_from_json(layer) for layer in layers]
    biases = None
    if any("bias" in layer for layer in layers):
        biases = [np.asarray(layer["bias"], dtype=float) for layer in layers]
    g = GenerativeNetwork(weights=weights, biases=biases)
    widths = stored_widths(obj)
    if widths != g.widths:
        raise DimensionMismatch(f"widths {widths}, where the layers give {g.widths}")
    return g


def save_network(g: GenerativeNetwork, path: str) -> None:
    write_json(network_to_json(g), path)


def load_network(path: str) -> GenerativeNetwork:
    return load_json(path, network_from_json)


def load_weight(path: str) -> np.ndarray:
    """A matrix file's matrix as a network's weight: real and finite."""
    return load_json(path, lambda obj: _real(matrix_from_json(obj), "weight"))
