"""Player behaviours: bipartite states plus question-indexed projective measurements.

A strategy holds a state on H_A x H_B, its (d_A, d_B) amplitude matrix, and,
per party, a map from question kind to a projective measurement whose
outcomes are answer strings over {-1,+1}.  A measurement is one orthonormal
basis U with an answer string per column: the projector of answer a is
U_a U_a^H over a's columns, and the observable of answer symbol k is
U diag(a_k) U^H.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .linalg import NORM_ATOL, STRUCTURAL_ATOL, half_swap_signs, kron

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


class NotProjective(ValueError):
    """Projectors that fail a check of `Measurement.from_projectors`."""


class Measurement:
    """Projective measurement held as an orthonormal basis whose columns carry answers.

    ``basis`` is a d x d unitary, and column j answers the +-1 string
    ``column_answers[j]``: ``column_signs[k, j]`` is its symbol k + 1.  The
    columns of one answer span its projector, so an answer may own several
    (a projector of rank > 1).  An answer that owns no column is not held:
    it has no entry in ``projectors``, nor in a strategy file written from
    the measurement.

    The program builds its bases unitary (a kron of 2x2 bases, or such a
    basis rotated) and does not check them; outside input is converted, and
    checked, by `from_projectors`.
    """

    def __init__(self, basis: np.ndarray, column_answers):
        self.basis = np.asarray(basis, dtype=complex)
        self.column_signs = np.array(column_answers, dtype=np.int8).T  # [k, j]: a_(k+1) of column j
        self.num_symbols, self.dim = len(self.column_signs), len(self.basis)

    @classmethod
    def from_projectors(cls, projectors: Mapping[tuple[int, ...], np.ndarray],
                        subject: str = "measurement") -> Measurement:
        """The measurement of a projector dict, rejected unless it is projective.

        Each P_a contributes the eigenvectors of its eigenvalues above 1/2,
        in dict order, as columns that answer a.  Nothing is repaired.  Four
        checks must hold, or NotProjective names each that fails as
        "<subject> <check> <deviation>": "hermitian" (max |P_a - P_a^H|),
        "orthogonality" (max |w (w - 1)| over the eigenvalues w of each P_a,
        zero exactly when a Hermitian P_a is idempotent) and "completeness"
        (max |sum_a P_a - I|), each within STRUCTURAL_ATOL, and "unitary",
        max(|U U^H - I|, |U^H U - I|) of the converted basis U.

        The basis is held to STRUCTURAL_ATOL / (2 d), d = dim, so that the
        observables M_k = U D_k U^H (D_k = diag(a_k), D_k^2 = I) need not be
        formed.  Take E = U^H U - I and F = U U^H - I, with largest entries
        e and f.  Row i of U has squared norm 1 + F_ii <= 1 + f, so by
        Cauchy-Schwarz over the rows |U X U^H| <= d (1 + f) |X| for any X.
        As M_k^2 - I = F + U D_k E D_k U^H and
        [M_j, M_k] = U (D_j E D_k - D_k E D_j) U^H,

            |M_k^2 - I| <= f + d e (1 + f),    |[M_j, M_k]| <= 2 d e (1 + f),

        and M_k is Hermitian by construction, up to rounding.  With e, f <=
        u = STRUCTURAL_ATOL / (2 d), both are at most (1 + u) STRUCTURAL_ATOL.
        The two parties' operators act on different tensor factors, so they
        commute exactly.
        """
        if not projectors:
            raise ValueError("measurement needs at least one projector")
        answers = [tuple(int(x) for x in a) for a in projectors]
        for a in answers:
            if len(a) != len(answers[0]) or any(x not in (-1, 1) for x in a):
                raise ValueError(f"bad answer string {a}")
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
        u = v.transpose(1, 0, 2)[:, keep]
        uh = u.conj().T
        checks = (
            ("completeness", np.abs(stack.sum(axis=0) - np.eye(dim)).max(), STRUCTURAL_ATOL),
            ("orthogonality", np.abs(w * (w - 1.0)).max(), STRUCTURAL_ATOL),
            ("hermitian", np.abs(stack - stack.conj().transpose(0, 2, 1)).max(), STRUCTURAL_ATOL),
            ("unitary", max(np.abs(u @ uh - np.eye(dim)).max(),
                            np.abs(uh @ u - np.eye(u.shape[1])).max(initial=0.0)),
             STRUCTURAL_ATOL / (2 * dim)),
        )
        failed = [f"{subject} {name} {dev:.3g}" for name, dev, tol in checks if not dev <= tol]
        if failed:
            raise NotProjective("; ".join(failed))
        return cls(u, [answers[i] for i in np.nonzero(keep)[0]])

    @property
    def observables(self) -> np.ndarray:
        """observables[k - 1] = U diag(a_k) U^H of symbol k, formed on each read, never held."""
        return (self.basis * self.column_signs[:, None, :]) @ self.basis.conj().T

    @functools.cached_property
    def projectors(self) -> dict[tuple[int, ...], np.ndarray]:
        """Projector U_a U_a^H of each answer that owns a column, in column order."""
        columns: dict[tuple[int, ...], list[int]] = {}
        for j, a in enumerate(map(tuple, self.column_signs.T.tolist())):
            columns.setdefault(a, []).append(j)
        return {a: self.basis[:, js] @ self.basis[:, js].conj().T for a, js in columns.items()}

    def __iter__(self):
        return iter(self.projectors.items())


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
    """Bipartite state plus per-party question -> measurement maps.

    The state is held as a read-only copy of the (d_A, d_B) amplitude
    matrix, divided by its norm, which must be 1 within NORM_ATOL.
    """

    state: np.ndarray
    alice: dict[str, Measurement]
    bob: dict[str, Measurement]
    m: int

    def __post_init__(self):
        psi = np.array(self.state, dtype=complex)
        if psi.ndim != 2:
            raise ValueError(f"strategy state must be a (d_A, d_B) matrix, got shape {psi.shape}")
        norm = np.linalg.norm(psi)
        if not abs(norm - 1.0) <= NORM_ATOL:  # also true for a NaN norm
            raise ValueError(f"state norm {norm} deviates from 1 beyond atol={NORM_ATOL}")
        psi /= norm
        psi.flags.writeable = False
        object.__setattr__(self, "state", psi)
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
        return self.state.shape[0]

    @property
    def dim_b(self) -> int:
        return self.state.shape[1]

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
        amps = (self.measurement("alice", qa).basis.conj().T @ self.state
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
    return Measurement(basis, list(itertools.product((1, -1), repeat=len(bases))))


def _honest_strategy(
    m: int, question_kinds: Callable[[int], tuple[str, ...]], basis_string: Callable[[str], str]
) -> Strategy:
    """Both parties measure each of the question_kinds(m) in the product basis
    that basis_string names, on m e-bits: amplitude 2^-m (-1)^(a.b) at |a>|b>."""
    if m < 1:
        raise ValueError(f"need at least one sub-test, got {m}")
    table = {kind: product_basis_measurement(basis_string(kind)) for kind in question_kinds(m)}
    state = half_swap_signs(m) * 2.0**-m
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
        # A measurement shared between the parties (both hold one dimension,
        # hence one rotation) is rotated once, by id.
        rotated: dict[int, Measurement] = {}
        for party, dim in (("alice", s.dim_a), ("bob", s.dim_b)):
            num_qubits = dim.bit_length() - 1
            if 2**num_qubits != dim:
                raise ValueError(
                    f"rotation noise needs a qubit party space, {party} has dim {dim}"
                )
            u = _rotation(noise.theta, num_qubits)
            for kind, meas in getattr(s, party).items():
                if id(meas) not in rotated:
                    rotated[id(meas)] = Measurement(u @ meas.basis, meas.column_signs.T)
                new_meas[party][kind] = rotated[id(meas)]
    psi = s.state
    if noise.w:
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(psi.size) + 1j * rng.standard_normal(psi.size)
        r /= np.linalg.norm(r)
        psi = (1.0 - noise.w) * psi + noise.w * r.reshape(psi.shape)
        psi = psi / np.linalg.norm(psi)
    return Strategy(
        state=psi,
        alice=new_meas["alice"],
        bob=new_meas["bob"],
        m=s.m,
    )


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


def _check_keys(obj: Mapping, where: str, allowed: tuple[str, ...]) -> None:
    """Reject an object of a strategy file that holds a key outside allowed."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"{where} has unknown key {', '.join(map(repr, unknown))}; the "
                         f"allowed keys are {', '.join(allowed[:-1])} and {allowed[-1]}")


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
        "state": _interleave(s.state),
        "questions": questions,
    }


def strategy_from_json(doc: Mapping) -> Strategy:
    dims, questions = doc.get("dims"), doc.get("questions")
    _check_field(_numbers(dims, 2, types={int}) and all(d >= 1 for d in dims),
                 "dims", "two integers >= 1", dims)
    da, db = dims
    m = doc.get("m")
    _check_field(_numbers([m], types={int}) and m >= 1, "m", "an integer >= 1", m)
    psi = _deinterleave(doc.get("state"), (da, db), "state")
    _check_field(isinstance(questions, list), "questions", "a list", questions)
    tables = {"alice": {}, "bob": {}}  # projectors by kind, converted after the key checks
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
        tables[party][kind] = projectors
    # After the field checks, so that a malformed field is named first.
    _check_keys(doc, "strategy file", ("dims", "m", "state", "questions"))
    for i, q in enumerate(questions):
        _check_keys(q, f"strategy field questions[{i}]", ("party", "kind", "projectors"))
        for j, entry in enumerate(q["projectors"]):
            _check_keys(entry, f"strategy field questions[{i}].projectors[{j}]",
                        ("answer", "matrix"))
    failures = []
    for party, table in tables.items():
        for kind, projectors in table.items():
            try:
                table[kind] = Measurement.from_projectors(projectors, f"{party}:{kind}")
            except NotProjective as exc:
                failures.append(str(exc))
    if failures:
        raise ValueError("strategy is not projective: " + "; ".join(failures))
    return Strategy(state=psi, alice=tables["alice"], bob=tables["bob"], m=m)


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
    _check_keys(noise, "strategy field noise", ("theta", "w", "seed"))
    seed = noise.get("seed", 0)
    _check_field(isinstance(seed, int), "noise.seed", "an integer", seed)
    _check_field(seed >= 0, "noise.seed", ">= 0", seed)
    _check_keys(doc, "strategy file", ("type", "m", "noise"))
    return kind, m, float(noise.get("theta", 0.0)), float(noise.get("w", 0.0)), seed
