"""Minuscule tensor combinatorics for SL_m: Pieri products of fundamental
representations, invariant dimensions by path counting, duality, dominance
order and Gaussian binomials."""

from itertools import combinations


class Partition:
    """Weakly decreasing nonnegative parts, at most m rows when bounded."""

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts if p != 0)
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        if parts and parts[-1] < 0:
            raise ValueError("parts must be nonnegative")
        self.parts = parts

    def part(self, i):
        return self.parts[i] if i < len(self.parts) else 0

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


class WeightSeq:
    """A sequence pi_1..pi_n with 1 <= pi_i <= m-1, encoding the minuscule
    weights omega_(pi_i) of SL_m."""

    def __init__(self, m, entries):
        if m < 1:
            raise ValueError("rank must be positive")
        entries = tuple(int(e) for e in entries)
        if any(not 1 <= e <= m - 1 for e in entries):
            raise ValueError("entries must lie in 1..m-1")
        self.m = m
        self.entries = entries

    @property
    def total(self):
        return sum(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, WeightSeq)
            and self.m == other.m
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.m, self.entries))

    def __repr__(self):
        return f"WeightSeq(m={self.m}, {self.entries})"


def pieri_add(p, j, m):
    """All partitions with at most m rows obtained from p by adding a
    vertical strip of j boxes (no two in the same row): the decomposition of
    V_p (x) V_(omega_j)."""
    if not 1 <= j <= m - 1:
        raise ValueError("need 1 <= j <= m-1")
    out = []
    for rows in combinations(range(m), j):
        parts = [p.part(i) for i in range(m)]
        for r in rows:
            parts[r] += 1
        if all(parts[i] >= parts[i + 1] for i in range(m - 1)):
            out.append(Partition(parts))
    return out


def root_lattice_check(w):
    """Is the sum of the omega_(pi_i) in the SL_m root lattice?  Equivalent
    to m | sum(pi_i)."""
    return w.total % w.m == 0


def invariant_dim(w):
    """dim of the SL_m invariants of the tensor product of the V_(omega_pi):
    the number of Pieri paths from the empty partition to the rectangle with
    m rows of length total/m, with multiplicities tracked level by level."""
    if not root_lattice_check(w):
        raise ValueError("weight sum is not in the root lattice")
    m = w.m
    k = w.total // m
    level = {Partition(()): 1}
    for j in w.entries:
        nxt = {}
        for p, mult in level.items():
            for q in pieri_add(p, j, m):
                nxt[q] = nxt.get(q, 0) + mult
        level = nxt
    return level.get(Partition((k,) * m), 0)


def dual_weight(m, j):
    """The index of the dual fundamental representation: omega_j^vee is
    omega_(m-j)."""
    if not 1 <= j <= m - 1:
        raise ValueError("need 1 <= j <= m-1")
    return m - j


def dominance_leq(a, b):
    """a <= b in dominance order: equal totals and partial sums of a never
    exceed those of b."""
    ea, eb = a.entries, b.entries
    if len(ea) != len(eb):
        raise ValueError("vectors must have equal length")
    if sum(ea) != sum(eb):
        return False
    sa = sb = 0
    for x, y in zip(ea, eb):
        sa += x
        sb += y
        if sa > sb:
            return False
    return True


def gaussian_binomial(m, j, q):
    """Number of j-dimensional subspaces of F_q^m (product formula)."""
    if not 0 <= j <= m:
        raise ValueError("need 0 <= j <= m")
    num = den = 1
    for i in range(j):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den
