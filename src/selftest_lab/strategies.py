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
        self.input_deviation = input_deviation
        self.num_symbols = m
        self.dim = self.basis.shape[0]

    @functools.cached_property
    def observables(self) -> np.ndarray:
        """observables[k - 1] = U diag(a_k) U^H, the observable of symbol k."""
        signs = self.answer_signs[self.column_groups].T  # signs[k, j] = a_{k+1} of column j
        return (self.basis * signs[:, None, :]) @ self.basis.conj().T

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

    theta rotates every projector of the listed parties by exp(-i*theta*Y)
    per qubit; w mixes the state with a seeded random unit vector.
    """

    theta: float = 0.0
    w: float = 0.0
    parties: tuple[str, ...] = ("alice", "bob")

    def __post_init__(self):
        if not abs(self.theta) <= math.pi:
            raise ValueError(f"theta {self.theta} outside [-pi, pi]")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"w {self.w} outside [0, 1]")
        if any(p not in ("alice", "bob") for p in self.parties):
            raise ValueError(f"unknown parties {self.parties}")


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
    """One parallel self-test: its questions and the bounds that cap its distance."""

    question_kinds: Callable[[int], tuple[str, ...]]
    # The question kind whose every sub-test measures the given symbol.
    symbol_kind: Callable[[str, int], str]
    bounds: tuple[str, str]  # (printed, recomputed) bound names

    def missing_kinds(self, s: Strategy) -> tuple[str, ...]:
        """This flavor's question kinds that either party of s cannot answer."""
        answered = set(s.kinds("alice")) & set(s.kinds("bob"))
        return tuple(k for k in self.question_kinds(s.m) if k not in answered)


FLAVORS: dict[str, Flavor] = {
    MY_FLAVOR: Flavor(
        my_question_kinds,
        lambda symbol, m: symbol,
        ("my-parallel", "my-parallel-recomputed"),
    ),
    SPP_FLAVOR: Flavor(
        spp_question_kinds,
        lambda symbol, m: symbol * m,
        ("spp", "spp-recomputed"),
    ),
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


def _ebit_block_state(m: int) -> StateVector:
    """Graph state of m isolated edges, declared as an (A, B) bipartite state."""
    psi = graph_state(AdjacencyMatrix.half_swap(2 * m))
    return psi.with_layout((("A", 2**m), ("B", 2**m)))


def honest_my_strategy(m: int) -> Strategy:
    """Ideal behaviour for the parallel pair test on m e-bits."""
    if m < 1:
        raise ValueError(f"need at least one sub-test, got {m}")
    table = {
        kind: product_basis_measurement(my_basis_string(kind, m))
        for kind in my_question_kinds(m)
    }
    return Strategy(
        state=_ebit_block_state(m),
        alice=dict(table),
        bob=dict(table),
        m=m,
    )


def honest_spp_strategy(m: int) -> Strategy:
    """Ideal behaviour for the strictly parallel test on m e-bits."""
    if m < 1:
        raise ValueError(f"need at least one sub-test, got {m}")
    table = {
        kind: product_basis_measurement(kind) for kind in spp_question_kinds(m)
    }
    return Strategy(
        state=_ebit_block_state(m),
        alice=dict(table),
        bob=dict(table),
        m=m,
    )


def _rotation(theta: float, num_qubits: int) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    u1 = np.array([[c, -s], [s, c]], dtype=complex)  # exp(-i*theta*Y)
    return kron(*([u1] * num_qubits))


def perturb_strategy(s: Strategy, noise: NoiseSpec, seed: int = 0) -> Strategy:
    """Noisy but still valid strategy: rotated measurement bases, mixed state."""
    new_meas = {"alice": dict(s.alice), "bob": dict(s.bob)}
    if noise.theta:
        for party in noise.parties:
            dim = s.dim_a if party == "alice" else s.dim_b
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


@dataclass(frozen=True)
class StrategyValidation:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def validate_strategy(s: Strategy) -> StrategyValidation:
    """Check completeness, orthogonality, observable structure, commutation.

    Never raises on a bad strategy; every deviation lands in the report.
    Completeness and orthogonality of a measurement's basis U are
    |U U^H - I| and |U^H U - I|; a measurement converted from projectors
    adds what its input lacked (`Measurement.input_deviation`).
    Cross-party commutation holds exactly by construction (different tensor
    factors); on small systems the check forms both embedded products from
    the party factors and compares them.
    """
    checks = []

    def record(name, subject, dev):
        checks.append(CheckResult(name, subject, float(dev), bool(dev <= STRUCTURAL_ATOL)))

    for party in ("alice", "bob"):
        for kind, meas in getattr(s, party).items():
            subject = f"{party}:{kind}"
            u, given = meas.basis, meas.input_deviation
            uh = u.conj().T
            record("completeness", subject, max(
                np.abs(u @ uh - np.eye(meas.dim)).max(), given.get("completeness", 0.0)))
            record("orthogonality", subject, max(
                np.abs(uh @ u - np.eye(u.shape[1])).max(initial=0.0),
                given.get("orthogonality", 0.0)))
            herm = given.get("hermitian", 0.0)
            unit = comm = 0.0
            mats = [s.observable(party, kind, k) for k in range(1, s.m + 1)]
            for mk in mats:
                herm = max(herm, np.abs(mk - mk.conj().T).max())
                unit = max(unit, np.abs(mk @ mk - np.eye(meas.dim)).max())
            for i, mi in enumerate(mats):
                for mj in mats[i + 1:]:
                    comm = max(comm, np.abs(mi @ mj - mj @ mi).max())
            record("hermitian", subject, herm)
            record("unitary", subject, unit)
            record("same-question-commute", subject, comm)

    # Cross-party commutation of the embedded observables, capped to the first
    # few kinds per side so huge question sets stay affordable.  The products
    # (A x I)(I x B) and (I x B)(A x I) are formed entrywise from the factors,
    # as A[i, j] B[k, l] and B[k, l] A[i, j] in the 4-index layout [i, j, k, l].
    if s.dim_a * s.dim_b <= 4096:
        dev = 0.0
        for kind_a in s.kinds("alice")[:4]:
            for kind_b in s.kinds("bob")[:4]:
                for k in range(1, s.m + 1):
                    ma = s.observable("alice", kind_a, k)
                    mb = s.observable("bob", kind_b, k)
                    ab = np.multiply.outer(ma, mb)
                    ba = np.multiply.outer(mb, ma).transpose(2, 3, 0, 1)
                    dev = max(dev, np.abs(ab - ba).max())
        record("cross-party-commute", "alice x bob", dev)

    return StrategyValidation(tuple(checks))


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
    m = int(doc["m"])
    amps = _deinterleave(doc.get("state"), (da * db,), "state")
    _check_field(isinstance(questions, list), "questions", "a list", questions)
    tables = {"alice": {}, "bob": {}}
    for i, q in enumerate(questions):
        field = f"questions[{i}]"
        _check_field(isinstance(q, dict), field, "an object", q)
        party, kind, entries = q.get("party"), q.get("kind"), q.get("projectors")
        _check_field(party in ("alice", "bob"), f"{field}.party", '"alice" or "bob"', party)
        _check_field(isinstance(kind, str), f"{field}.kind", "a string", kind)
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
            projectors[tuple(answer)] = _deinterleave(
                entry.get("matrix"), (dim, dim), f"{where}.matrix"
            )
        tables[party][kind] = Measurement(projectors)
    state = StateVector(amps, (("A", da), ("B", db)))
    return Strategy(state=state, alice=tables["alice"], bob=tables["bob"], m=m)


def load_strategy(doc: Mapping) -> Strategy:
    """Build a strategy from either serialized form or a named honest recipe."""
    if "type" in doc:
        kind = doc["type"]
        m = int(doc["m"])
        builders = {"honest-my": honest_my_strategy, "honest-spp": honest_spp_strategy}
        if not isinstance(kind, str) or kind not in builders:
            raise ValueError(f"unknown strategy type {kind!r}")
        s = builders[kind](m)
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
        if noise:
            spec = NoiseSpec(
                theta=float(noise.get("theta", 0.0)),
                w=float(noise.get("w", 0.0)),
            )
            s = perturb_strategy(s, spec, seed=seed)
        return s
    return strategy_from_json(doc)
