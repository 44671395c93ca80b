"""Exact finite-dimensional exterior algebra, bigraded elements included.

Everything here is sparse and exact over complex coefficients: wedge
products with merge-permutation signs, Pfaffians of skew matrices whose
entries are even-degree forms (one first-row expansion compiled once per
dimension, walked on term maps by `pfaffian_terms` or on Python floats by
`pfaffian_numeric`), Berezin integrals (projection onto the top
exterior coefficient), nilpotent exponentials, derivation extensions of
endomorphisms to antisymmetric powers (dense matrices, applied from one
cached read-only table per (d, p) that holds all of the merge-sign
bookkeeping), and the alternating-trace identities that drive the
curvature cancellation machinery.

A coefficient is a scalar or an (N,) array: one element carries N stacked
elements with one sparsity pattern, and row k equals the one-element
computation (bit for bit, unless NumPy fuses the multiply-adds of general
complex products).  A term is dropped only when its coefficient is an
exact scalar zero or an all-zero array.

Sign conventions, fixed once:

* wedge sign = parity of the merge permutation of the two index lists;
* Lambda(base) (x) Lambda(fiber) is the exterior algebra on n_base +
  n_fiber generators, fiber generator f numbered n_base + f.  Its one
  product is the wedge: moving s past w' in w ^ s ^ w' ^ s' costs
  (-1)^{deg s * deg w'}, which is the Koszul rule
  (w (x) s) * (w' (x) s') = (-1)^{deg s * deg w'} (w ^ w') (x) (s ^ s');
* a skew matrix M corresponds to the 2-vector  sum_{i<j} M[i,j] e_i ^ e_j,
  which makes  berezin(exp(two_vector(M))) == pfaffian(M)  hold exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FormElement", "BigradedElement", "SkewFormMatrix",
    "merge_indices", "perm_sign", "wedge", "pfaffian", "pfaffian_terms",
    "pfaffian_definition", "pfaffian_numeric", "berezin", "berezin_fiber", "exp_nilpotent",
    "two_vector", "dp_extend", "dp_extend4", "supertrace",
    "patodi_coefficient", "killing_double_sum", "lambda_basis",
]


def _nonzero(c):
    """False for an exact scalar zero or an all-zero array (canonical form)."""
    return c.any() if isinstance(c, np.ndarray) else c != 0


@functools.lru_cache(maxsize=None)
def merge_indices(a, b):
    """Concatenate two strictly increasing index tuples.

    Returns (sign, merged) with the merge-permutation parity, or (0, None)
    when the tuples share an index.  A table filled on first use per pair.
    """
    if set(a) & set(b):
        return 0, None
    merged = a + b
    # parity of the permutation sorting `merged`
    inversions = 0
    for i, ai in enumerate(a):
        for bj in b:
            if ai > bj:
                inversions += 1
    return (-1) ** inversions, tuple(sorted(merged))


class FormElement:
    """Element of the exterior algebra on `n` anticommuting generators.

    Stored as a map from strictly increasing index tuples to nonzero
    complex coefficients (scalars or (N,) arrays).
    """

    __slots__ = ("n", "terms")
    __array_ufunc__ = None  # ndarray (op) element defers to the element

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for idx, c in terms.items():
                idx = tuple(idx)
                if list(idx) != sorted(set(idx)):
                    raise ValueError(f"index tuple must be strictly increasing: {idx}")
                if idx and (idx[0] < 0 or idx[-1] >= n):  # the ends bound a sorted key
                    raise ValueError(f"generator index out of range in {idx}")
                self.terms[idx] = self.terms.get(idx, 0) + c
            self._prune()

    @property
    def _shape(self):
        return (self.n,)

    def _prune(self):
        self.terms = {k: v for k, v in self.terms.items() if _nonzero(v)}

    def _new(self, terms):
        out = type(self)(*self._shape)
        out.terms = terms
        out._prune()
        return out

    def _check(self, other):
        if self._shape != other._shape:
            raise ValueError(f"mismatched generator counts {self._shape} and {other._shape}")

    def __add__(self, other):
        if not isinstance(other, FormElement):
            other = self._new({(): other})
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return self._new(terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + other * -1

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, FormElement):
            return wedge(self, other)
        return self._new({k: v * other for k, v in self.terms.items()})

    __rmul__ = __mul__

    def degrees(self):
        return sorted({len(idx) for idx in self.terms})

    def coefficient(self, idx):
        return self.terms.get(tuple(idx), 0.0)

    def max_abs(self):
        return max((np.abs(c).max() if isinstance(c, np.ndarray) else abs(c)
                    for c in self.terms.values()), default=0.0)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, FormElement):
            return NotImplemented
        return self._shape == other._shape and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "FormElement(0)"
        bits = [f"{c!r}*e{''.join(str(i + 1) for i in idx)}" if idx else f"{c!r}"
                for idx, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))]
        return "FormElement(" + " + ".join(bits) + ")"


def wedge(a, b):
    """Graded-commutative product of two form elements."""
    a._check(b)
    terms = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            sign, merged = merge_indices(ia, ib)
            if sign:
                terms[merged] = terms.get(merged, 0) + sign * ca * cb
    return a._new(terms)


class BigradedElement(FormElement):
    """Element of Lambda(base) (x) Lambda(fiber): a form on n_base + n_fiber
    generators, fiber generator f numbered n_base + f.

    The constructor takes {(base tuple, fiber tuple): c} and stores each
    term under the flat key base + (n_base + f for f in fiber).
    """

    __slots__ = ("n_base", "n_fiber")

    def __init__(self, n_base, n_fiber, terms=None):
        self.n_base = n_base
        self.n_fiber = n_fiber
        flat = {}
        for (tb, tf), c in (terms or {}).items():
            # the flat key's check covers order, repeats, i < 0, f >= n_fiber;
            # in an increasing key, tb ends in its largest index, tf starts in its least
            if tb and tb[-1] >= n_base or tf and tf[0] < 0:
                raise ValueError(f"generator index out of range in {(tb, tf)}")
            flat[tuple(tb) + tuple([n_base + f for f in tf])] = c
        super().__init__(n_base + n_fiber, flat)

    @property
    def _shape(self):
        return (self.n_base, self.n_fiber)

    # perfbench/spantrace.py traces BigradedElement.__mul__ by name, so the
    # bigraded products keep a span of their own
    __mul__ = __rmul__ = FormElement.__mul__


@dataclass
class SkewFormMatrix:
    """d x d skew matrix of even-degree (hence commuting) form elements."""

    d: int
    entries: list = field(default_factory=list)

    def __post_init__(self):
        if self.d % 2:
            raise ValueError("dimension must be even")
        if len(self.entries) != self.d or any(len(row) != self.d for row in self.entries):
            raise ValueError("entries must be a d x d array of FormElements")
        for i in range(self.d):
            for j in range(self.d):
                e = self.entries[i][j]
                if any(deg % 2 for deg in e.degrees()):
                    raise ValueError("entries must have pure even degree")
                if (e + self.entries[j][i]).max_abs() != 0:
                    raise ValueError("matrix must be exactly skew-symmetric")

    @classmethod
    def from_scalars(cls, m):
        m = np.asarray(m)
        d = m.shape[0]
        ent = [[FormElement(1, {(): complex(m[i, j])} if m[i, j] != 0 else None)
                for j in range(d)] for i in range(d)]
        return cls(d, ent)


@functools.lru_cache(maxsize=None)
def _pf_plan(d):
    """The first-row expansion of a d x d Pfaffian, compiled once per d.

    Nodes are the index subsets the expansion reaches, in evaluation
    order: node 0 is the empty set, the last node is range(d), and every
    node comes after the nodes it reads.  Node k is a tuple of steps
    (i0, j, sub, sign): Pf(node k) = sum of sign * entry(i0, j) * Pf(node
    sub), where i0 is the node's smallest index, j runs over the others
    in increasing order with sign (-1)^pos, and sub is the node without
    i0 and j.
    """
    if d % 2:
        raise ValueError("Pfaffian needs even dimension")
    levels = [[tuple(range(d))]]
    while levels[-1][0]:
        levels.append(sorted({s[1:p] + s[p + 1:] for s in levels[-1]
                              for p in range(1, len(s))}))
    subsets = [s for level in reversed(levels) for s in level]
    node = {s: k for k, s in enumerate(subsets)}
    return tuple(tuple((s[0], j, node[s[1:p] + s[p + 1:]], (-1) ** (p - 1))
                       for p, j in enumerate(s[1:], 1))
                 for s in subsets)


def pfaffian_terms(entry, d):
    """Pfaffian of a d x d skew matrix of even forms, as {index tuple: coefficient}.

    entry(i, j), for i < j, returns matrix entry (i, j) as a map from
    strictly increasing index tuples to coefficients: scalars, or (N,)
    arrays for a stack of N matrices sharing one sparsity pattern.  Walks
    `_pf_plan(d)` on term maps; entries commute because they are of even
    degree.  entry is called at most once per pair, and nothing here holds
    it or its maps once the walk returns (no reference cycle keeps a
    stack's arrays alive until the cyclic collector runs).  Zero
    coefficients are kept.
    """
    ents = {}
    vals = [{(): 1}]
    for steps in _pf_plan(d)[1:]:
        acc = {}
        for i0, j, sub, sign in steps:
            ent = ents.get((i0, j))
            if ent is None:
                ent = ents[i0, j] = entry(i0, j)
            for idx1, c1 in vals[sub].items():
                for idx2, c2 in ent.items():
                    s, merged = merge_indices(idx2, idx1)
                    if s:
                        acc[merged] = acc.get(merged, 0) + (sign * s) * (c2 * c1)
        vals.append(acc)
    return vals[-1]


def pfaffian(a: SkewFormMatrix) -> FormElement:
    """Pfaffian by the compiled first-row expansion (see pfaffian_terms).

    Matches the permutation-sum definition (see pfaffian_definition).
    """
    if a.d % 2:
        raise ValueError("Pfaffian needs even dimension")
    return FormElement(a.entries[0][1].n,
                       pfaffian_terms(lambda i, j: a.entries[i][j].terms, a.d))


def pfaffian_definition(a: SkewFormMatrix) -> FormElement:
    """Permutation-sum Pfaffian 1/(2^{d/2} (d/2)!) sum_s sgn(s) prod a_{s(2i-1) s(2i)}.

    Exponential in d; retained as the independent test oracle for d <= 8.
    """
    d = a.d
    if d > 8:
        raise ValueError("definition oracle limited to d <= 8")
    half = d // 2
    total = FormElement(a.entries[0][0].n)
    for sigma in itertools.permutations(range(d)):
        sgn = perm_sign(sigma)
        prod = a.entries[sigma[0]][sigma[1]]
        for i in range(1, half):
            prod = wedge(prod, a.entries[sigma[2 * i]][sigma[2 * i + 1]])
        total = total + prod * sgn
    return total * (1.0 / (2 ** half * math.factorial(half)))


def pfaffian_numeric(m) -> float:
    """Pfaffian of a plain scalar skew matrix: `_pf_plan(d)` walked on
    Python numbers, with the arithmetic of `pfaffian_terms` on one-term
    maps, so the float equals the FormElement route's bit for bit."""
    m = np.asarray(m)
    d = m.shape[0]
    if d % 2:
        raise ValueError("dimension must be even")
    if m.shape != (d, d) or np.any(m + m.T != 0):
        raise ValueError("matrix must be exactly skew-symmetric")
    rows = m.tolist()
    vals = [1]
    for steps in _pf_plan(d)[1:]:
        acc = 0
        for i0, j, sub, sign in steps:
            acc = acc + sign * (rows[i0][j] * vals[sub])
        vals.append(acc)
    return float(vals[-1].real)


def perm_sign(sigma):
    sign = 1
    seen = [False] * len(sigma)
    for i in range(len(sigma)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def berezin(omega: FormElement):
    """Coefficient of the top generator product e_1 ^ ... ^ e_n."""
    return omega.coefficient(tuple(range(omega.n)))


def berezin_fiber(omega: BigradedElement) -> FormElement:
    """Fiberwise Berezin integral: keep the terms whose key ends in the top
    fiber product, as the form on their base prefix."""
    nf = omega.n_fiber
    top = tuple(range(omega.n_base, omega.n))
    return FormElement(omega.n_base, {k[:len(k) - nf]: c for k, c in omega.terms.items()
                                      if k[len(k) - nf:] == top})


def exp_nilpotent(omega):
    """exp of a form element; exact because the positive-degree part is nilpotent.

    A scalar part s is split off as exp(s) * exp(omega - s).  A real
    scalar part goes through libm's exp, row by row for an array, so each
    row matches its one-element call bit for bit (NumPy's vectorized exp
    can differ in the last ulp).
    """
    one = omega._new({(): 1.0})
    s = omega.coefficient(())
    nil = omega - s
    min_deg = min(nil.degrees(), default=omega.n + 1)
    if min_deg < 1:
        raise ValueError("positive-degree part expected after scalar split")
    kmax = omega.n // min_deg
    result = one
    power = one
    fact = 1.0
    for k in range(1, kmax + 1):
        power = power * nil
        fact *= k
        if power.max_abs() == 0:
            break
        result = result + power * (1.0 / fact)
    if isinstance(s, (int, float)):
        scale = math.exp(s)
    elif isinstance(s, np.ndarray) and s.dtype.kind != "c":
        scale = np.fromiter(map(math.exp, s), float, len(s))
    else:
        scale = np.exp(s)
    return result * scale


def two_vector(m) -> FormElement:
    """The 2-vector sum_{i<j} m[i,j] e_i ^ e_j of a skew matrix."""
    m = np.asarray(m)
    d = m.shape[0]
    return FormElement(d, {(i, j): complex(m[i, j])
                           for i in range(d) for j in range(i + 1, d)})


# --------------------------------------------------------------------------
# Derivation extensions and alternating traces
# --------------------------------------------------------------------------

def lambda_basis(d, p):
    """Lexicographically ordered basis index tuples of Lambda^p."""
    return list(itertools.combinations(range(d), p))


@functools.lru_cache(maxsize=None)
def _dp_table(d, p):
    """D^p on Lambda^p of R^d as a linear function of the endomorphism a.

    Returns a read-only (5, T) integer array with rows i, j, row, col, sign:
    entry t adds sign * a[j, i] to D^p(a)[row, col] (e_j replaces e_i in
    one slot of the column's basis tuple).  Entries are made in (column,
    slot, j) order and sorted stably by (i, j): every diagonal entry still
    sums its slots in order, and the entries with one (i, j) are D^p(E_ij)
    for the elementary endomorphism taking e_i to e_j.
    """
    basis = lambda_basis(d, p)
    pos = {idx: k for k, idx in enumerate(basis)}
    entries = []
    for col, idx in enumerate(basis):
        for slot, i in enumerate(idx):
            others = idx[:slot] + idx[slot + 1:]
            for j in range(d):
                if j in others:
                    continue
                # e_j replaces slot `slot`: move it to the front (slot swaps),
                # then merge into the ordered remainder
                sign, merged = merge_indices((j,), others)
                entries.append((i, j, pos[merged], col, (-1) ** slot * sign))
    entries.sort(key=lambda e: e[:2])
    table = np.array(entries, dtype=np.intp).reshape(-1, 5).T
    table.setflags(write=False)
    return table


def dp_extend(a, p):
    """Derivation extension of an endomorphism, or a stack of them, to Lambda^p.

    Acts in one slot at a time with merge signs; D^0 = 0, D^1 = a.
    Matrix is on the lexicographic basis of index tuples; a (..., d, d)
    stack gives a (..., C(d, p), C(d, p)) stack.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[-1]
    if not 0 <= p <= d:
        raise ValueError(f"degree p={p} out of range 0..{d}")
    i, j, rows, cols, signs = _dp_table(d, p)
    m = np.zeros(a.shape[:-2] + (math.comb(d, p),) * 2)
    np.add.at(m, (..., rows, cols), signs * a[..., j, i])
    return m


def dp_extend4(a, p):
    """Extension of a 4-tensor a^{ijkl} (e_i* (x) e_j (x) e_k* (x) e_l) to Lambda^p.

    Computed as sum_{ij} D^p(E_ij) o D^p(a[i,j,:,:]) where E_ij is the
    elementary endomorphism taking e_i to e_j; bilinearity in the two
    endomorphism slots makes this the induced linear map on 4-tensors.
    D^p(E_ij) is the (i, j) block of the D^p table, a signed selection of
    rows, so the sum is one signed gather accumulated in (i, j) order.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    if a.shape != (d, d, d, d):
        raise ValueError("expected a d^4 tensor")
    # slice (k,l) is an operator in the same e_k* (x) e_l convention as
    # E_ij, so its operator matrix is the transposed array
    second = dp_extend(a.transpose(0, 1, 3, 2), p)
    i, j, rows, cols, signs = _dp_table(d, p)
    out = np.zeros(second.shape[2:])
    np.add.at(out, rows, signs[:, None] * second[i, j, cols])
    return out


def supertrace(ops, d):
    """Alternating sum over form degrees: sum_p (-1)^p tr ops(p)."""
    return sum((-1) ** p * float(np.trace(np.atleast_2d(ops(p)))) for p in range(d + 1))


def patodi_coefficient(mats):
    """Coefficient of x_1...x_d in det(x_1 A_1 + ... + x_d A_d).

    Extracted by evaluating the determinant on all of {0,1}^d and
    Moebius-inverting: only the full-support multilinear monomial survives
    the alternating subset sum.
    """
    mats = [np.asarray(m, dtype=float) for m in mats]
    d = len(mats)
    if any(m.shape != (d, d) for m in mats):
        raise ValueError("need exactly d matrices of size d x d")
    total = 0.0
    for mask in range(2 ** d):
        chosen = [mats[i] for i in range(d) if mask >> i & 1]
        size = len(chosen)
        det = np.linalg.det(sum(chosen)) if chosen else 0.0
        total += (-1) ** (d - size) * det
    return total


@functools.lru_cache(maxsize=None)
def _signed_perms(d):
    """Permutations of range(d) as a (d!, d) index array, and their signs."""
    perms = np.array(list(itertools.permutations(range(d))), dtype=np.intp)
    return perms, np.array([float(perm_sign(sigma)) for sigma in perms])


def killing_double_sum(a, pairing="interleaved"):
    """Double permutation contraction of a 4-tensor, or of a (..., d, d, d, d) stack.

    pairing="interleaved": sum over s1, s2 of
        sgn(s1) sgn(s2) prod_m a[s1(2m-1), s2(2m-1), s1(2m), s2(2m)]
    which equals the supertrace of (dp_extend4(a, .))^{d/2}.

    pairing="blocks": slots (1,2) from s1 and (3,4) from s2,
        sgn(s1) sgn(s2) prod_m a[s1(2m-1), s1(2m), s2(2m-1), s2(2m)]
    the contraction used for curvature tensors, where the two index pairs
    are the antisymmetric pairs.  The two pairings agree after swapping
    tensor slots 2 and 3.

    For each s1 the terms of every s2 are gathered at once; the running
    total adds them one by one in (s1, s2) order, so each tensor of a stack
    gives the value of its one-tensor call.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[-1]
    if a.ndim < 4 or a.shape[-4:] != (d,) * 4:
        raise ValueError("expected a d^4 tensor or a stack of them")
    if d % 2:
        raise ValueError("even dimension required")
    if pairing == "blocks":
        a = np.swapaxes(a, -3, -2)
    elif pairing != "interleaved":
        raise ValueError("pairing must be 'interleaved' or 'blocks'")
    perms, signs = _signed_perms(d)
    total = np.zeros(a.shape[:-4] + (1,))
    for s1, sg1 in zip(perms, signs):
        prod = a[..., s1[0], perms[:, 0], s1[1], perms[:, 1]]
        for m in range(2, d, 2):
            prod = prod * a[..., s1[m], perms[:, m], s1[m + 1], perms[:, m + 1]]
        total = np.add.accumulate(np.concatenate([total, sg1 * signs * prod], axis=-1),
                                  axis=-1)[..., -1:]
    return total[..., 0][()]  # a NumPy scalar for one tensor
