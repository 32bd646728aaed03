"""Player behaviours: bipartite states plus question-indexed projective measurements.

A strategy holds a state on H_A x H_B and, per party, a map from question
kind to a projective measurement whose outcomes are answer strings over
{-1,+1}.  A measurement is one orthonormal basis U whose columns carry
answer strings, grouped by answer: the projector of answer a is U_a U_a^H
over a's columns, and the observable of answer symbol k is U diag(a_k) U^H.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Mapping

import numpy as np

from .bitstrings import AdjacencyMatrix
from .linalg import (
    StateVector,
    STRUCTURAL_ATOL,
    graph_state,
    kron,
)

MY_FLAVOR = "my"
SPP_FLAVOR = "spp"
# The honest strategies that a --strategy flag or a recipe file names.
NAMED_STRATEGIES = ("honest-my", "honest-spp")

# Measurement directions in the X-Z plane: cos(angle) Z + sin(angle) X.
_BASIS_ANGLES = {"Z": 0.0, "X": math.pi / 2, "D": math.pi / 4, "E": 3 * math.pi / 4}


def basis_vectors(symbol: str) -> tuple[np.ndarray, np.ndarray]:
    """(+1, -1) eigenvectors of the single-qubit observable for a symbol."""
    theta = _BASIS_ANGLES[symbol]
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([c, s], dtype=complex), np.array([-s, c], dtype=complex)


class Measurement:
    """Projective measurement held as one basis whose columns carry answers.

    ``basis`` is dim x r, with r = dim for a valid measurement.  ``answers``
    lists the distinct answer strings in first-appearance order, and column
    j of the basis answers ``answers[column_groups[j]]``.  An answer may own
    no column (its projector is 0) or several (a projector of rank > 1).

    ``Measurement(projectors)`` converts a projector dict once: each P_a
    contributes the eigenvectors of its eigenvalues above 1/2, in dict
    order.  The conversion repairs nothing.  What the input lacks of an
    orthogonal projector family is kept in ``input_deviation`` under the
    check names of `validate_strategy`: "hermitian" (max |P_a - P_a^H|),
    "orthogonality" (max |w (w - 1)| over the eigenvalues w of each P_a,
    zero exactly when a Hermitian P_a is idempotent) and "completeness"
    (max |sum_a P_a - I|).  ``projectors`` are formed from the basis, so a
    converted measurement serializes in its converted form.
    """

    def __init__(self, projectors: Mapping[tuple[int, ...], np.ndarray]):
        if not projectors:
            raise ValueError("measurement needs at least one projector")
        answers = [tuple(int(x) for x in a) for a in projectors]
        mats = [np.asarray(p, dtype=complex) for p in projectors.values()]
        dim = mats[0].shape[0]
        for p in mats:
            if p.shape != (dim, dim):
                raise ValueError(f"projector shape {p.shape} != ({dim}, {dim})")
        stack = np.array(mats)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            bad = answers[np.argmin(finite)]
            raise ValueError(f"projector of answer {bad} has non-finite entries")
        w, v = np.linalg.eigh(stack)
        keep = w > 0.5  # keep[i, j]: eigenvector j of answer i's projector
        deviation = {
            "hermitian": float(np.abs(stack - stack.conj().transpose(0, 2, 1)).max()),
            "orthogonality": float(np.abs(w * (w - 1.0)).max()),
            "completeness": float(np.abs(stack.sum(axis=0) - np.eye(dim)).max()),
        }
        self._hold(v.transpose(1, 0, 2)[:, keep], answers, np.nonzero(keep)[0], deviation)

    @classmethod
    def from_basis(cls, basis: np.ndarray, answers, column_groups=None,
                   input_deviation=None) -> Measurement:
        """Measurement whose basis column j answers answers[column_groups[j]];
        by default column j answers answers[j]."""
        meas = cls.__new__(cls)
        if column_groups is None:
            column_groups = np.arange(len(answers))
        meas._hold(basis, answers, column_groups, input_deviation or {})
        return meas

    def _hold(self, basis, answers, column_groups, input_deviation) -> None:
        answers = tuple(answers)
        m = len(answers[0])
        for a in answers:
            if len(a) != m or any(x not in (-1, 1) for x in a):
                raise ValueError(f"bad answer string {a}")
        self.basis = np.asarray(basis, dtype=complex)
        self.answers = answers
        self.column_groups = np.asarray(column_groups, dtype=np.intp)
        self.answer_signs = np.array(answers, dtype=np.int8).reshape(-1, m)
        self.column_signs = self.answer_signs[self.column_groups].T  # [k, j]: a_(k+1) of column j
        self.input_deviation = input_deviation
        self.num_symbols = m
        self.dim = self.basis.shape[0]

    @property
    def observables(self) -> np.ndarray:
        """observables[k - 1] = U diag(a_k) U^H of symbol k, formed on each read, never held."""
        return (self.basis * self.column_signs[:, None, :]) @ self.basis.conj().T

    @functools.cached_property
    def projectors(self) -> dict[tuple[int, ...], np.ndarray]:
        """Projector U_a U_a^H of each answer, in answer order."""
        out = {}
        for i, a in enumerate(self.answers):
            cols = self.basis[:, self.column_groups == i]
            out[a] = cols @ cols.conj().T
        return out

    def __iter__(self):
        return iter(self.projectors.items())


@dataclass(frozen=True)
class EpsilonBundle:
    """Error parameters feeding the robustness bound formulas."""

    eps: float = 0.0
    eps1: float = 0.0
    eps2: float = 0.0
    eps3: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0 <= value < math.inf:  # also false for NaN
                raise ValueError(f"{f.name} must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise applied to an honest strategy.

    theta rotates every projector of both parties by exp(-i*theta*Y) per
    qubit; w mixes the state with a seeded random unit vector.
    """

    theta: float = 0.0
    w: float = 0.0

    def __post_init__(self):
        if not abs(self.theta) <= math.pi:
            raise ValueError(f"theta {self.theta} outside [-pi, pi]")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"w {self.w} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class Strategy:
    """Bipartite state plus per-party question -> measurement maps."""

    state: StateVector
    alice: dict[str, Measurement]
    bob: dict[str, Measurement]
    m: int

    def __post_init__(self):
        if len(self.state.layout) != 2:
            raise ValueError("strategy state needs a two-register (A, B) layout")
        if self.m < 1:
            raise ValueError(f"sub-test count must be positive, got {self.m}")
        for party, dim in (("alice", self.dim_a), ("bob", self.dim_b)):
            for kind, meas in getattr(self, party).items():
                if meas.dim != dim:
                    raise ValueError(
                        f"{party} measurement {kind!r} acts on dim {meas.dim}, "
                        f"party space is dim {dim}"
                    )
                if meas.num_symbols != self.m:
                    raise ValueError(
                        f"{party} measurement {kind!r} answers {meas.num_symbols} "
                        f"symbols, expected {self.m}"
                    )

    @property
    def dim_a(self) -> int:
        return self.state.dims[0]

    @property
    def dim_b(self) -> int:
        return self.state.dims[1]

    def measurement(self, party: str, kind: str) -> Measurement:
        table = getattr(self, party, None)
        if table is None or kind not in table:
            raise KeyError(f"strategy has no question {kind!r} for {party}")
        return table[kind]

    def observable(self, party: str, kind: str, k: int) -> np.ndarray:
        """Party-local observable for answer symbol k of a question."""
        table = getattr(self, party) if party in ("alice", "bob") else {}
        if kind not in table or not 1 <= k <= self.m:
            raise KeyError(f"no observable for party={party!r} kind={kind!r} k={k}")
        return table[kind].observables[k - 1]

    def kinds(self, party: str) -> tuple[str, ...]:
        return tuple(getattr(self, party).keys())

    def column_probabilities(self, qa: str, qb: str) -> np.ndarray:
        """|U_a^H psi conj(U_b)|^2: entry (i, j) pairs Alice's basis column i with Bob's j."""
        amps = (self.measurement("alice", qa).basis.conj().T @ self.state.reshaped()
                @ self.measurement("bob", qb).basis.conj())
        return amps.real**2 + amps.imag**2

    def correlations(self, qa: str, qb: str) -> np.ndarray:
        """<psi| M^qa_k x M^qb_k |psi> by k - 1: sum_ij a_k(i) p_ij b_k(j) over the column
        probabilities p, a_k(i) being symbol k of column i's answer; real by construction."""
        signs_a, signs_b = (self.measurement(*q).column_signs for q in (("alice", qa), ("bob", qb)))
        return ((signs_a @ self.column_probabilities(qa, qb)) * signs_b).sum(axis=1)


def ceil_log2(m: int) -> int:
    return (m - 1).bit_length()


def my_question_kinds(m: int) -> tuple[str, ...]:
    """Question kinds of the parallel pair test: X, Z, D plus the index families."""
    kinds = ["X", "Z", "D"]
    for j in range(1, ceil_log2(m) + 1):
        kinds.append(f"X{j}")
        kinds.append(f"Z{j}")
    return tuple(kinds)


def spp_question_kinds(m: int) -> tuple[str, ...]:
    """All 4^m symbol strings of the strictly parallel test."""
    return tuple(
        "".join(sym) for sym in itertools.product("XZDE", repeat=m)
    )


@dataclass(frozen=True)
class Flavor:
    """One parallel self-test: its questions."""

    question_kinds: Callable[[int], tuple[str, ...]]
    # The question kind whose every sub-test measures the given symbol.
    symbol_kind: Callable[[str, int], str]

    def missing_kinds(self, s: Strategy) -> tuple[str, ...]:
        """This flavor's question kinds that either party of s cannot answer."""
        answered = set(s.kinds("alice")) & set(s.kinds("bob"))
        return tuple(k for k in self.question_kinds(s.m) if k not in answered)


FLAVORS: dict[str, Flavor] = {
    MY_FLAVOR: Flavor(my_question_kinds, lambda symbol, m: symbol),
    SPP_FLAVOR: Flavor(spp_question_kinds, lambda symbol, m: symbol * m),
}


def _index_bit(k: int, j: int) -> int:
    """Bit j of the sub-test index k, j=1 being the least significant."""
    return (k >> (j - 1)) & 1


def my_basis_string(kind: str, m: int) -> str:
    """Per-qubit measurement bases for one question of the pair test.

    The index families measure qubit k in X exactly when bit j of k is 1;
    both the X- and Z-labelled families follow this same published rule.
    """
    if kind in ("X", "Z", "D"):
        return kind * m
    family, j = kind[0], int(kind[1:])
    if family not in ("X", "Z") or not 1 <= j <= ceil_log2(m):
        raise ValueError(f"unknown question kind {kind!r}")
    return "".join("X" if _index_bit(k, j) else "Z" for k in range(1, m + 1))


def product_basis_measurement(bases: str) -> Measurement:
    """Measurement of each qubit in the eigenbasis named per position.

    The basis is the kron of the 2x2 bases [v+, v-], so its column order is
    the answer order of itertools.product((1, -1), repeat=len(bases)).
    """
    basis = kron(*(np.column_stack(basis_vectors(sym)) for sym in bases))
    return Measurement.from_basis(basis, list(itertools.product((1, -1), repeat=len(bases))))


def _honest_strategy(
    m: int, question_kinds: Callable[[int], tuple[str, ...]], basis_string: Callable[[str], str]
) -> Strategy:
    """Both parties measure each of the question_kinds(m) in the product basis
    that basis_string names, on the graph state of m isolated edges."""
    if m < 1:
        raise ValueError(f"need at least one sub-test, got {m}")
    table = {kind: product_basis_measurement(basis_string(kind)) for kind in question_kinds(m)}
    psi = graph_state(AdjacencyMatrix.half_swap(2 * m))
    state = psi.with_layout((("A", 2**m), ("B", 2**m)))
    return Strategy(state=state, alice=dict(table), bob=dict(table), m=m)


def honest_my_strategy(m: int) -> Strategy:
    """Ideal behaviour for the parallel pair test on m e-bits."""
    return _honest_strategy(m, my_question_kinds, lambda kind: my_basis_string(kind, m))


def honest_spp_strategy(m: int) -> Strategy:
    """Ideal behaviour for the strictly parallel test on m e-bits."""
    return _honest_strategy(m, spp_question_kinds, lambda kind: kind)


def _rotation(theta: float, num_qubits: int) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    u1 = np.array([[c, -s], [s, c]], dtype=complex)  # exp(-i*theta*Y)
    return kron(*([u1] * num_qubits))


def perturb_strategy(s: Strategy, noise: NoiseSpec, seed: int = 0) -> Strategy:
    """Noisy but still valid strategy: rotated measurement bases, mixed state."""
    new_meas = {"alice": dict(s.alice), "bob": dict(s.bob)}
    if noise.theta:
        for party, dim in (("alice", s.dim_a), ("bob", s.dim_b)):
            num_qubits = dim.bit_length() - 1
            if 2**num_qubits != dim:
                raise ValueError(
                    f"rotation noise needs a qubit party space, {party} has dim {dim}"
                )
            u = _rotation(noise.theta, num_qubits)
            new_meas[party] = {
                kind: Measurement.from_basis(
                    u @ meas.basis, meas.answers, meas.column_groups, meas.input_deviation
                )
                for kind, meas in getattr(s, party).items()
            }
    amps = s.state.amps
    if noise.w:
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(amps.size) + 1j * rng.standard_normal(amps.size)
        r /= np.linalg.norm(r)
        amps = (1.0 - noise.w) * amps + noise.w * r
        amps = amps / np.linalg.norm(amps)
    return Strategy(
        state=StateVector(amps, s.state.layout),
        alice=new_meas["alice"],
        bob=new_meas["bob"],
        m=s.m,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    subject: str
    max_deviation: float
    passed: bool


def validate_strategy(s: Strategy) -> tuple[CheckResult, ...]:
    """Check each measurement's basis and what its input lacked.

    Never raises on a bad strategy; every deviation lands in the report.
    Per measurement, "completeness", "orthogonality" and "hermitian" are
    what a converted projector file lacked (`Measurement.input_deviation`; 0
    for a measurement built from a basis), each against STRUCTURAL_ATOL, and
    "unitary" is max(|U U^H - I|, |U^H U - I|) of the basis U.

    The basis is held to STRUCTURAL_ATOL / (2 d), d = dim, so that the
    observables M_k = U D_k U^H (D_k = diag(a_k), D_k^2 = I) need not be
    formed.  Take E = U^H U - I and F = U U^H - I, with largest entries e
    and f.  Row i of U has squared norm 1 + F_ii <= 1 + f, so by
    Cauchy-Schwarz over the rows |U X U^H| <= d (1 + f) |X| for any X.  As
    M_k^2 - I = F + U D_k E D_k U^H and
    [M_j, M_k] = U (D_j E D_k - D_k E D_j) U^H,

        |M_k^2 - I| <= f + d e (1 + f),    |[M_j, M_k]| <= 2 d e (1 + f),

    and M_k is Hermitian by construction, up to rounding.  With e, f <= u =
    STRUCTURAL_ATOL / (2 d), both are at most (1 + u) STRUCTURAL_ATOL.  The
    two parties' operators act on different tensor factors, so they commute
    exactly.
    """
    checks = []

    def record(name, subject, dev, tol=STRUCTURAL_ATOL):
        checks.append(CheckResult(name, subject, float(dev), bool(dev <= tol)))

    for party in ("alice", "bob"):
        for kind, meas in getattr(s, party).items():
            subject = f"{party}:{kind}"
            for name in ("completeness", "orthogonality", "hermitian"):
                record(name, subject, meas.input_deviation.get(name, 0.0))
            u = meas.basis
            uh = u.conj().T
            record("unitary", subject, max(
                np.abs(u @ uh - np.eye(meas.dim)).max(),
                np.abs(uh @ u - np.eye(u.shape[1])).max(initial=0.0),
            ), STRUCTURAL_ATOL / (2 * meas.dim))

    return tuple(checks)


# --- JSON serialization -----------------------------------------------------


def _interleave(a: np.ndarray) -> list[float]:
    flat = np.asarray(a, dtype=complex).ravel()
    out = np.empty(2 * flat.size)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out.tolist()


def _numbers(values, count=None, types=frozenset((int, float))) -> bool:
    """Whether values is a JSON list of numbers of the given exact types (so
    no bool), of count entries if given."""
    return (isinstance(values, list) and count in (None, len(values))
            and set(map(type, values)) <= types)


def _check_field(ok: bool, field: str, want: str, got) -> None:
    """Reject a malformed strategy-file field by name, before it is used."""
    if not ok:
        raise ValueError(f"strategy field {field} must be {want}, got {got!r:.60}")


def _deinterleave(values, shape, field: str) -> np.ndarray:
    size = 2 * math.prod(shape)
    _check_field(_numbers(values, size), field, f"a list of {size} numbers", values)
    arr = np.asarray(values, dtype=float)
    return (arr[0::2] + 1j * arr[1::2]).reshape(shape)


def strategy_to_json(s: Strategy) -> dict:
    questions = []
    for party in ("alice", "bob"):
        for kind, meas in getattr(s, party).items():
            questions.append(
                {
                    "party": party,
                    "kind": kind,
                    "projectors": [
                        {"answer": list(a), "matrix": _interleave(p)}
                        for a, p in meas
                    ],
                }
            )
    return {
        "dims": [s.dim_a, s.dim_b],
        "m": s.m,
        "state": _interleave(s.state.amps),
        "questions": questions,
    }


def strategy_from_json(doc: Mapping) -> Strategy:
    dims, questions = doc.get("dims"), doc.get("questions")
    _check_field(_numbers(dims, 2, types={int}) and all(d >= 1 for d in dims),
                 "dims", "two integers >= 1", dims)
    da, db = dims
    m = doc.get("m")
    _check_field(_numbers([m], types={int}) and m >= 1, "m", "an integer >= 1", m)
    amps = _deinterleave(doc.get("state"), (da * db,), "state")
    _check_field(isinstance(questions, list), "questions", "a list", questions)
    tables = {"alice": {}, "bob": {}}
    for i, q in enumerate(questions):
        field = f"questions[{i}]"
        _check_field(isinstance(q, dict), field, "an object", q)
        party, kind, entries = q.get("party"), q.get("kind"), q.get("projectors")
        _check_field(party in ("alice", "bob"), f"{field}.party", '"alice" or "bob"', party)
        _check_field(isinstance(kind, str), f"{field}.kind", "a string", kind)
        if kind in tables[party]:
            raise ValueError(f"strategy field {field} repeats {party} question {kind!r}")
        _check_field(
            isinstance(entries, list)
            and all(isinstance(e, dict) and _numbers(e.get("answer")) for e in entries),
            f"{field}.projectors", 'a list of objects with an "answer" list', entries,
        )
        dim = da if party == "alice" else db
        projectors = {}
        for j, entry in enumerate(entries):
            where, answer = f"{field}.projectors[{j}]", entry["answer"]
            _check_field(_numbers(answer, types={int}), f"{where}.answer",
                         "a list of integers", answer)
            if tuple(answer) in projectors:
                raise ValueError(f"strategy field {where}.answer repeats {answer}")
            projectors[tuple(answer)] = _deinterleave(
                entry.get("matrix"), (dim, dim), f"{where}.matrix"
            )
        tables[party][kind] = Measurement(projectors)
    state = StateVector(amps, (("A", da), ("B", db)))
    return Strategy(state=state, alice=tables["alice"], bob=tables["bob"], m=m)


def recipe_from_json(doc: Mapping) -> tuple[str, int, float, float, int]:
    """(type, m, theta, w, noise seed) of a recipe {"type", "m", "noise"}: a
    named honest strategy and the noise that perturbs it."""
    kind, m = doc.get("type"), doc.get("m")
    _check_field(_numbers([m], types={int}) and m >= 1, "m", "an integer >= 1", m)
    if kind not in NAMED_STRATEGIES:
        raise ValueError(f"unknown strategy type {kind!r}")
    noise = doc.get("noise", {})
    _check_field(
        isinstance(noise, dict) and _numbers([noise.get(k, 0) for k in ("theta", "w", "seed")]),
        "noise", 'an object with numeric "theta", "w" and "seed"', noise,
    )
    unknown = sorted(set(noise) - {"theta", "w", "seed"})
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise ValueError(f"strategy field noise has unknown key {names}; "
                         "the allowed keys are theta, w and seed")
    seed = noise.get("seed", 0)
    _check_field(isinstance(seed, int), "noise.seed", "an integer", seed)
    return kind, m, float(noise.get("theta", 0.0)), float(noise.get("w", 0.0)), seed
