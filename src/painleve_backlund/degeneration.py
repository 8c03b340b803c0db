"""The five degeneration arrows and the lifting machinery.

Each arrow J -> K is data: the parameter substitution alpha = alpha(A, eps),
the forward variable maps (t, q, p) -> (A, eps, T, Q, P), the inverse maps
(T, Q, P) expressed in source coordinates, the subgroup words S_i in W_J,
the declared branches S_i(eps), and the Hamiltonian/derivation rescale.
Inverse maps were derived by solving the forward maps and are pinned by
round-trip checks.  An arrow is parsed from its data on first use, once per
process and at the truncation order its data declares, so a command builds
only the arrow it checks.  Each declared branch is read there once, into the
two forms the checks use: its eps-series (the lifted variable actions) and
its exact k-th power in u = eps^k with its lead coefficient (the eps ids and
the eps part of the relation checks, both exact).

Lifted actions are computed by conjugation, never transcribed: express the
target symbol in source coordinates, act by the word exactly in W_J, push
forward through the substitution, and expand in eps.  Published lifted
formulas are then available to tests as expectations rather than inputs.

For III -> II the time variable is not rational in the new coordinates
(t = -tau^2), so inverse expressions use the auxiliary symbol tau; a word
with an even number of s1 letters fixes t and therefore sends tau to a
declared sign times tau.
"""

from __future__ import annotations

from functools import cache, partial

from .exprio import parse_expr
from .groups import Word, _word_on_symbol, fundamental_relations, generator, verify_relation
from .poly import Poly
from .ratfn import RatFn, ratfn_equal
from .series import EpsSeries, binomial_series, ratfn_at_series, ratfn_limit_eps0, rational_pair
from .symbols import A, P_, Q_, Symbol, T_, alpha, eps, p_, q_, sym, t_, tau, var_key
from .systems import _constraint_binding, poisson_bracket, system

class UnsupportedArrow(ValueError):
    """A degeneration square outside the five supported arrows."""


class BranchDataError(ValueError):
    """Declared eps-branch data that side (b) cannot compose exactly."""


class DegenerationArrow:
    """One arrow at its declared truncation order, hashed by identity: the
    caches keyed on an arrow rely on there being one object per arrow."""

    source: str
    target: str
    param_map: dict[Symbol, RatFn]
    param_inverse: dict[Symbol, RatFn]
    var_forward: dict[Symbol, RatFn]
    var_inverse: dict[Symbol, RatFn]
    subgroup_words: dict[str, Word]
    alt_words: dict[str, Word]
    eps_action: dict[str, EpsSeries]
    eps_exact: dict[str, tuple[RatFn, RatFn]]
    eps_power: int
    eps_in_source: RatFn
    tau_pushforward: RatFn | None
    tau_signs: dict[str, int]
    deriv_rescale: RatFn
    ham_shift: RatFn
    trunc: int
    __slots__ = tuple(__annotations__)  # the fields above, in order

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields.pop(name))
        if fields:
            raise TypeError(f"unknown arrow fields: {', '.join(fields)}")

    @property
    def name(self) -> str:
        return f"{self.source}->{self.target}"

    def is_birational(self) -> bool:
        """eps itself (not only eps^k) is rational in the source parameters."""
        return self.eps_power == 1

    def pushforward(self, f: RatFn) -> RatFn:
        """Rewrite a source-coordinate expression in target coordinates."""
        bindings = dict(self.param_map)
        bindings.update(self.var_forward)
        return f.substitute(bindings)


class _SlicedAction:
    """A lifted variable action in factored form.

    The action equals sum over pieces (exact, j) of the expansion of the
    exact rational part times branch_unit^j, where branch_unit = S(eps)/eps
    has constant term 1.  Keeping the pieces unexpanded lets callers choose
    how many eps-orders to materialize: the coefficient at order n only
    needs each exact part to order n, and high orders of these actions are
    genuinely enormous.
    """

    __slots__ = ("pieces", "branch_unit")

    def __init__(self, pieces: list[tuple[RatFn, int]], branch_unit: EpsSeries):
        self.pieces = pieces
        self.branch_unit = branch_unit

    def materialize(self, order: int) -> EpsSeries:
        total = EpsSeries.zero(order)
        unit_pows: dict[int, EpsSeries] = {}
        for exact, j in self.pieces:
            pw = unit_pows.get(j)
            if pw is None:
                pw = self.branch_unit**j
                unit_pows[j] = pw
            term = EpsSeries.from_ratfn(exact, order) * pw
            total = total + term.truncate(min(order, term.trunc))
        return total


class LiftedGenerator:
    """A W_J word lifted through an arrow: exact A_i actions, its eps branch
    as a series, and its T, Q, P actions (exact when birational, else sliced)."""

    __slots__ = ("arrow", "name", "word", "param_actions", "eps_series",
                 "var_parts", "exact_var", "param_images")

    def __init__(self, arrow: DegenerationArrow, name: str, word: Word,
                 param_actions: dict[Symbol, RatFn], eps_series: EpsSeries):
        self.arrow = arrow
        self.name = name
        self.word = word
        self.param_actions = param_actions
        self.eps_series = eps_series
        self.var_parts: dict[Symbol, _SlicedAction] = {}
        self.exact_var: dict[Symbol, RatFn] | None = None
        self.param_images: dict[RatFn, RatFn] = {}

    def param_image(self, f: RatFn) -> RatFn:
        """f with the lifted parameter actions substituted, kept on the lift
        (the bindings of a lift never change)."""
        image = self.param_images.get(f)
        if image is None:
            image = self.param_images[f] = f.substitute(self.param_actions)
        return image

    def action_series(self, s: Symbol, order: int | None = None) -> EpsSeries:
        """The realized action on a lifted field generator, as a series.

        order defaults to the arrow's truncation order.  Variable actions on
        the non-birational arrows are materialized on demand; their low
        orders are cheap while high orders grow quickly.
        """
        if order is None:
            order = self.arrow.trunc
        if s is eps:
            return self.eps_series.truncate(min(order, self.eps_series.trunc))
        if s in self.param_actions:
            return EpsSeries.from_ratfn(self.param_actions[s], order)
        if self.exact_var is not None:
            return EpsSeries.from_ratfn(self.exact_var[s], order)
        return self.var_parts[s].materialize(order)

    def action_limit(self, s: Symbol) -> RatFn:
        """eps -> 0 limit of the action on s; raises DivergesAtZero."""
        if s in self.param_actions:
            return ratfn_limit_eps0(self.param_actions[s])
        if self.exact_var is not None and s in self.exact_var:
            return ratfn_limit_eps0(self.exact_var[s])
        return self.action_series(s, 0).limit_eps0()


# ----------------------------------------------------------------------
# arrow data

# Each arrow as written, with its truncation order.  An eps_action
# entry is the declared branch of S_i(eps): a rational image of eps, or
# (inner, power) for the branch eps * (1 + inner)^power.
_ARROW_DATA = {
    ("VI", "V"): dict(
        trunc=8,
        param_map={
            "alpha0": "1/eps",
            "alpha1": "A3",
            "alpha2": "A2",
            "alpha3": "A0 - A2 - 1/eps",
            "alpha4": "A1",
        },
        param_inverse={
            "A0": "alpha0 + alpha2 + alpha3",
            "A1": "alpha4",
            "A2": "alpha2",
            "A3": "alpha1",
        },
        var_forward={
            "t": "1 + eps*T",
            "q": "Q/(Q-1)",
            "p": "-(Q-1)*(A2 + (Q-1)*P)",
        },
        var_inverse={
            "T": "(t-1)/eps",
            "Q": "q/(q-1)",
            "P": "-(q-1)*(alpha2 + (q-1)*p)",
        },
        subgroup_words={
            "S0": ("s0", "s2", "s3", "s2", "s0"),
            "S1": ("s4",),
            "S2": ("s2",),
            "S3": ("s1",),
        },
        alt_words={"S0": ("s3", "s2", "s0", "s2", "s3")},
        eps_action={
            "S0": "eps/(1 - A0*eps)",
            "S1": "eps",
            "S2": "eps/(1 + A2*eps)",
            "S3": "eps",
        },
        eps_power=1,
        eps_in_source="1/alpha0",
        deriv_rescale="1 + eps*T",
    ),
    ("V", "IV"): dict(
        trunc=12,
        param_map={
            "alpha0": "A0 + 1/(2*eps^2)",
            "alpha1": "A1",
            "alpha2": "A2",
            "alpha3": "-1/(2*eps^2)",
        },
        param_inverse={
            "A0": "alpha0 + alpha3",
            "A1": "alpha1",
            "A2": "alpha2",
        },
        var_forward={
            "t": "(1 + 2*eps*T)/(2*eps^2)",
            "q": "-eps*Q/(1 - eps*Q)",
            "p": "-(1 - eps*Q)*(P - eps*(A2 + Q*P))/eps",
        },
        var_inverse={
            "T": "(2*eps^2*t - 1)/(2*eps)",
            "Q": "q/(eps*(q-1))",
            "P": "-eps*(q-1)*(p*(q-1) + alpha2)",
        },
        subgroup_words={
            "S0": ("s3", "s0", "s3"),
            "S1": ("s1",),
            "S2": ("s2",),
        },
        alt_words={"S0": ("s0", "s3", "s0")},
        eps_action={
            "S0": ("2*A0*eps^2", "-1/2"),
            "S1": "eps",
            "S2": ("-2*A2*eps^2", "-1/2"),
        },
        eps_power=2,
        eps_in_source="-1/(2*alpha3)",
        deriv_rescale="(1 + 2*eps*T)/(2*eps)",
    ),
    ("V", "III"): dict(
        trunc=8,
        param_map={
            "alpha0": "A2",
            "alpha1": "1/eps",
            "alpha2": "A0",
            "alpha3": "2*A1 - 1/eps",
        },
        param_inverse={
            "A0": "alpha2",
            "A1": "(alpha1 + alpha3)/2",
            "A2": "alpha0",
        },
        var_forward={
            "t": "-eps*T",
            "q": "1 + Q/(eps*T)",
            "p": "eps*T*P",
        },
        var_inverse={
            "T": "-t/eps",
            "Q": "-t*(q-1)",
            "P": "-p/t",
        },
        subgroup_words={
            "S0": ("s2",),
            "S1": ("s3", "s1"),
            "S2": ("s0",),
        },
        alt_words={"S1": ("s1", "s3")},
        eps_action={
            "S0": "eps/(1 + A0*eps)",
            "S1": "-eps",
            "S2": "eps/(1 + A2*eps)",
        },
        eps_power=1,
        eps_in_source="1/alpha1",
        deriv_rescale="1",
        ham_shift="Q*P",
    ),
    ("IV", "II"): dict(
        trunc=12,
        param_map={
            "alpha0": "A0 - 1/(4*eps^6)",
            "alpha1": "1/(4*eps^6)",
            "alpha2": "A1",
        },
        param_inverse={
            "A0": "alpha0 + alpha1",
            "A1": "alpha2",
        },
        var_forward={
            "t": "-(1 - eps^4*T)/(sqrt2*eps^3)",
            "q": "(1 + 2*eps^2*Q)/(sqrt2*eps^3)",
            "p": "eps*P/sqrt2",
        },
        var_inverse={
            "T": "(1 + sqrt2*eps^3*t)/eps^4",
            "Q": "(sqrt2*eps^3*q - 1)/(2*eps^2)",
            "P": "sqrt2*p/eps",
        },
        subgroup_words={
            "S0": ("s0", "s1", "s0"),
            "S1": ("s2",),
        },
        alt_words={"S0": ("s1", "s0", "s1")},
        eps_action={
            "S0": ("-4*A0*eps^6", "-1/6"),
            "S1": ("4*A1*eps^6", "-1/6"),
        },
        eps_power=6,
        eps_in_source="1/(4*alpha1)",
        deriv_rescale="sqrt2/eps",
    ),
    # The variable change composes t = -tau^2, q = -tau/x, p = (x/tau)(A1+xy)
    # with tau = (1+eps^2 T)/(4 eps^3), x = 1+2 eps Q, y = P/(2 eps).
    ("III", "II"): dict(
        trunc=12,
        param_map={
            "alpha0": "A1",
            "alpha1": "1/(4*eps^3)",
            "alpha2": "A0 - 1/(2*eps^3)",
        },
        param_inverse={
            "A0": "alpha2 + 2*alpha1",
            "A1": "alpha0",
        },
        var_forward={
            "t": "-(1 + eps^2*T)^2/(16*eps^6)",
            "q": "-(1 + eps^2*T)/(4*eps^3*(1 + 2*eps*Q))",
            "p": "2*eps^2*(1 + 2*eps*Q)*(P + 2*eps*A1 + 2*eps*Q*P)/(1 + eps^2*T)",
        },
        var_inverse={
            "T": "(4*eps^3*tau - 1)/eps^2",
            "Q": "-(tau + q)/(2*eps*q)",
            "P": "2*eps*q*(p*q + alpha0)/tau",
        },
        subgroup_words={
            "S0": ("s2", "s1", "s2", "s1"),
            "S1": ("s0",),
        },
        alt_words={"S0": ("s1", "s2", "s1", "s2")},
        eps_action={
            "S0": "-eps",
            "S1": ("4*A1*eps^3", "-1/3"),
        },
        eps_power=3,
        eps_in_source="1/(4*alpha1)",
        tau_pushforward="(1 + eps^2*T)/(4*eps^3)",
        tau_signs={"S0": -1, "S1": 1},
        deriv_rescale="(1 + eps^2*T)/(2*eps^2)",
    ),
}

ARROW_KEYS = tuple(_ARROW_DATA)


@cache
def _build_arrow(key: tuple[str, str]) -> DegenerationArrow:
    """One arrow at its declared truncation order, parsed on first use."""
    data = _ARROW_DATA[key]
    trunc = data["trunc"]

    def smap(names_exprs: dict[str, str]) -> dict[Symbol, RatFn]:
        return {sym(k): parse_expr(v) for k, v in names_exprs.items()}

    def branch(name: str, image) -> tuple[EpsSeries, tuple[RatFn, RatFn]]:
        """The declared branch S as a series, with two orders of headroom so
        that shifted products downstream still reach the truncation order,
        and exactly: (U, c) with S^k = U(A, eps^k) (eps stands for u = eps^k
        in U) and c the order-1 coefficient of S.  A rational image r gives
        S^k = r^k, a pair (inner, power) eps^k * (1 + inner)^(k*power)."""
        where, k = f"{key[0]}->{key[1]} {name}", data["eps_power"]
        if isinstance(image, str):
            r = parse_expr(image)
            series, power = EpsSeries.from_ratfn(r, trunc + 2), r**k
        else:  # eps * (1 + inner)^power
            n, d = rational_pair(image[1])
            if k * n % d:
                raise BranchDataError(f"{where}: {k} * power {image[1]} is not an integer")
            inner = parse_expr(image[0])
            x = EpsSeries.from_ratfn(inner, trunc + 2)
            series = binomial_series(x, image[1], trunc + 2).shift(1)
            power = RatFn.variable(eps) ** k * (RatFn.const(1) + inner) ** (k * n // d)
        if series.valuation() != 1:
            raise BranchDataError(f"{where}: the branch is not c*eps*(1 + O(eps)), c != 0")
        num, den = _in_u(power.num, k), _in_u(power.den, k)
        if num is None or den is None:
            raise BranchDataError(f"{where}: S^{k} is not rational in eps^{k}")
        return series, (RatFn(num, den), series.coeff(1))

    tau_image = data.get("tau_pushforward")
    branches = {name: branch(name, image) for name, image in data["eps_action"].items()}
    return DegenerationArrow(
        source=key[0],
        target=key[1],
        param_map=smap(data["param_map"]),
        param_inverse=smap(data["param_inverse"]),
        var_forward=smap(data["var_forward"]),
        var_inverse=smap(data["var_inverse"]),
        subgroup_words=data["subgroup_words"],
        alt_words=data["alt_words"],
        eps_action={name: series for name, (series, _) in branches.items()},
        eps_exact={name: exact for name, (_, exact) in branches.items()},
        eps_power=data["eps_power"],
        eps_in_source=parse_expr(data["eps_in_source"]),
        tau_pushforward=None if tau_image is None else parse_expr(tau_image),
        tau_signs=data.get("tau_signs", {}),
        deriv_rescale=parse_expr(data["deriv_rescale"]),
        ham_shift=parse_expr(data.get("ham_shift", "0")),
        trunc=trunc,
    )


def arrow_data(source: str, target: str) -> dict:
    """The unparsed data of the arrow source -> target; builds nothing."""
    data = _ARROW_DATA.get((source, target))
    if data is not None:
        return data
    if (source, target) == ("II", "I"):
        raise UnsupportedArrow(
            "the II -> I degeneration is not lifted: every candidate"
            " generator converges to the identity as eps -> 0, so no"
            " Backlund group survives on the P_I side"
        )
    raise UnsupportedArrow(f"no degeneration arrow {source} -> {target}")


def arrow(source: str, target: str) -> DegenerationArrow:
    """The arrow source -> target, built once per process."""
    arrow_data(source, target)  # raises UnsupportedArrow for any other pair
    return _build_arrow((source, target))


def arrows() -> list[DegenerationArrow]:
    return [arrow(*key) for key in ARROW_KEYS]


# ----------------------------------------------------------------------
# lifting

_SOURCE_FIELD = tuple(alpha) + (t_, q_, p_)


def lift_word(
    arr: DegenerationArrow,
    word: Word,
    name: str = "",
    eps_series: EpsSeries | None = None,
    tau_sign: int | None = None,
) -> LiftedGenerator:
    """Lift an arbitrary W_J word through the arrow by conjugation.

    The action on eps needs a branch for the non-birational arrows; named
    subgroup generators carry declared branches, other words must supply one.
    """
    word = tuple(word)
    J = arr.source
    n_params = len(system(arr.target).params)

    # Exact action on the target parameters: A_i in source terms, word
    # action, then parameters rewritten in (A, eps).
    param_actions = {}
    for i in range(n_params):
        expr = arr.param_inverse[A[i]].substitute(
            {v: _word_on_symbol(J, word, v) for v in alpha}
        )
        param_actions[A[i]] = expr.substitute(arr.param_map)

    eps_exact = _eps_power_image(arr, word) if arr.is_birational() else None
    if eps_series is None:
        if eps_exact is None:
            raise ValueError(f"word {word} on {arr.name} needs an explicit eps branch")
        eps_series = EpsSeries.from_ratfn(eps_exact, arr.trunc)

    lifted = LiftedGenerator(arr, name or "".join(word), word, param_actions, eps_series)

    # Exact pushed images of the source field generators under the word.
    needed = set()
    for X in (T_, Q_, P_):
        needed |= arr.var_inverse[X].symbols_used()
    pushed: dict[Symbol, RatFn] = {}
    for v in _SOURCE_FIELD:
        if v in needed:
            pushed[v] = arr.pushforward(_word_on_symbol(J, word, v))

    if eps_exact is not None:
        # eps is rational in the source parameters: the whole lift is exact.
        bindings = dict(pushed)
        bindings[eps] = eps_exact
        lifted.exact_var = {
            X: arr.var_inverse[X].substitute(bindings)
            for X in (T_, Q_, P_)
        }
        return lifted

    # Non-birational pipeline.  Every inverse expression has denominator of
    # the form eps^d * D with D free of eps, so each eps-slice of phi lifts
    # to an exact rational part times a power of the branch unit
    # B = S(eps)/eps (a series with constant term 1).
    if tau in needed and tau_sign is None:
        raise ValueError(f"word {word} on {arr.name} needs a tau sign")
    if tau in needed:
        tau_img = arr.tau_pushforward
        pushed[tau] = tau_img if tau_sign > 0 else -tau_img
    branch_unit = eps_series.shift(-1)
    lifted.var_parts = {
        X: _lift_inverse_expr(arr.var_inverse[X], pushed, branch_unit)
        for X in (T_, Q_, P_)
    }
    return lifted


def _eps_power_image(arr: DegenerationArrow, word: Word) -> RatFn:
    """The exact image of eps^k (k = eps_power) under the word, in (A, eps):
    eps^k is rational in the source parameters."""
    expr = arr.eps_in_source.substitute({v: _word_on_symbol(arr.source, word, v) for v in alpha})
    return expr.substitute(arr.param_map)


def _lift_inverse_expr(
    phi: RatFn,
    pushed: dict[Symbol, RatFn],
    branch_unit: EpsSeries,
) -> _SlicedAction:
    """Lifted action on one inverse expression phi(source, eps, tau).

    Splits phi by eps-degree: each slice transforms exactly (word action and
    pushforward are rational), while eps^m itself picks up branch_unit^m.
    """
    den_slices = phi.den.slices(eps)
    if len(den_slices) != 1:
        raise ValueError("inverse expression denominator mixes eps orders")
    (d, D), = den_slices.items()
    eps_var = RatFn.variable(eps)
    pieces = []
    for m, N_m in phi.num.slices(eps).items():
        # one quotient, so the pushed denominators cancel in one substitution
        exact = RatFn(N_m, D).substitute(pushed) * eps_var ** (m - d)
        pieces.append((exact, m - d))
    return _SlicedAction(pieces, branch_unit)


@cache
def lift_generator(arr: DegenerationArrow, name: str) -> LiftedGenerator:
    """Lift a named subgroup generator S_i with its declared branch data."""
    if name not in arr.subgroup_words:
        raise KeyError(f"{arr.name} has no subgroup generator {name!r}")
    return lift_word(
        arr,
        arr.subgroup_words[name],
        name=name,
        eps_series=arr.eps_action[name],
        tau_sign=arr.tau_signs.get(name),
    )


def limit_action(arr: DegenerationArrow, name: str, X: Symbol) -> RatFn:
    """eps -> 0 limit of the lifted action of S_name on X, in lowest terms.

    Raises DivergesAtZero when a negative order survives, which is what
    distinguishes the chosen subgroup words from raw generators.  Binding
    denominators of the target generator are divided out while they divide
    both num and den (S0 on P for VI->V and V->IV, on Q for IV->II).
    """
    limit = lift_generator(arr, name).action_limit(X)
    num, den = limit.num, limit.den
    for d in () if den.is_const() else _target_binding_dens(arr, name):
        while (d.ends_may_divide([(num, 1)]) and d.ends_may_divide([(den, 1)])
               and (quo_den := den.try_div(d)) is not None
               and (quo_num := num.try_div(d)) is not None):
            num, den = quo_num, quo_den
    return limit if num is limit.num else RatFn(num, den)


@cache
def _target_binding_dens(arr: DegenerationArrow, name: str) -> dict:
    """The binding denominators of the target generator, in A, T, Q, P."""
    dens = (b.den for b in generator(arr.target, "s" + name[1:]).action.values())
    n = len(system(arr.target).params)
    return dict.fromkeys(_relabel_to_target(RatFn(d), n).num for d in dens if not d.is_one())


# ----------------------------------------------------------------------
# expectations from the target tables

def _relabel_to_target(f: RatFn, n_params: int) -> RatFn:
    """f with alpha_i renamed A_i and t, q, p renamed T, Q, P."""
    moves = {alpha[i]: A[i] for i in range(n_params)} | {t_: T_, q_: Q_, p_: P_}
    return RatFn(f.num.rename(moves), f.den.rename(moves))


def target_table_action(arr: DegenerationArrow, name: str, X: Symbol) -> RatFn:
    """The W_K generator table entry for S_name acting on X, in A,T,Q,P."""
    gen_name = "s" + name[1:]
    gen = generator(arr.target, gen_name)
    n_params = len(system(arr.target).params)
    source_sym = {T_: t_, Q_: q_, P_: p_}.get(X)
    if source_sym is None:
        source_sym = alpha[A.index(X)]
    return _relabel_to_target(gen.acts_on(source_sym), n_params)


def target_constraint_reduce(arr: DegenerationArrow, f: RatFn) -> RatFn:
    """Eliminate A0 using the target system's normalization."""
    rest = _constraint_binding(arr.target)[alpha[0]]
    return f.substitute({A[0]: _relabel_to_target(rest, len(system(arr.target).params))})


@cache
def _arrow_data_items(arr: DegenerationArrow) -> tuple[tuple[str, partial, RatFn], ...]:
    """Structural checks pinning the arrow data: (label, lazy lhs, expected).

    Round trips of the variable maps, symplecticity of the forward map in
    the (Q, P) bracket, constraint transport, and the parameter inverses.
    With eps treated as a formal symbol all of these are exact identities;
    for III -> II the time round trip closes onto -tau^2 by construction.
    """
    fwd = {**arr.var_forward, **arr.param_map}
    if arr.tau_pushforward is not None:
        fwd[tau] = arr.tau_pushforward
    inv = {**arr.var_inverse, **arr.param_inverse}
    items = [
        (f"inverse({X.name}) o forward = {X.name}",
         partial(arr.var_inverse[X].substitute, fwd), RatFn.variable(X))
        for X in (T_, Q_, P_)
    ] + [
        (f"forward({v.name}) o inverse = {v.name}",
         partial(arr.var_forward[v].substitute, inv), RatFn.variable(v))
        for v in (q_, p_)
    ]
    t_back = partial(arr.var_forward[t_].substitute, inv)
    t_expected = RatFn.variable(t_) if arr.tau_pushforward is None else -RatFn.variable(tau) ** 2
    items.append(("forward(t) o inverse", t_back, t_expected))
    items.append(("forward map symplectic", partial(
        poisson_bracket, arr.var_forward[p_], arr.var_forward[q_], p=P_, q=Q_
    ), RatFn.const(1)))
    src_constraint = system(arr.source).constraint_expr()
    tgt = system(arr.target)
    tgt_constraint = _relabel_to_target(tgt.constraint_expr(), len(tgt.params))
    items.append(("constraint transport",
                  partial(src_constraint.substitute, arr.param_map), tgt_constraint))
    items += [
        (f"param inverse {i.name}", partial(f.substitute, arr.param_map), RatFn.variable(i))
        for i, f in arr.param_inverse.items()
    ]
    items.append((f"eps^{arr.eps_power} in source",
                  partial(arr.eps_in_source.substitute, arr.param_map),
                  RatFn.variable(eps) ** arr.eps_power))
    return tuple(items)


def arrow_data_labels(arr: DegenerationArrow) -> list[str]:
    """Labels of the arrow-data checks, in order, without evaluating them."""
    return [label for label, _, _ in _arrow_data_items(arr)]


def verify_arrow_datum(arr: DegenerationArrow, i: int) -> tuple[str, bool]:
    """The i-th arrow-data check: (label, verdict)."""
    label, lhs, expected = _arrow_data_items(arr)[i]
    return label, ratfn_equal(lhs(), expected)


def verify_arrow_data(arr: DegenerationArrow) -> list[tuple[str, bool]]:
    """Every arrow-data check: (label, verdict) in order."""
    return [(label, ratfn_equal(lhs(), want)) for label, lhs, want in _arrow_data_items(arr)]


# ----------------------------------------------------------------------
# Hamiltonian degeneration

@cache
def degenerate_hamiltonian_exact(arr: DegenerationArrow) -> RatFn:
    """H_{J->K} as an exact rational function of A, eps, T, Q, P."""
    H = system(arr.source).hamiltonian
    factor = arr.deriv_rescale.inverse()
    return factor * arr.pushforward(H) + arr.ham_shift


@cache
def degenerate_hamiltonian(arr: DegenerationArrow) -> EpsSeries:
    """The eps-expansion of H_{J->K} at the arrow's truncation order."""
    return EpsSeries.from_ratfn(degenerate_hamiltonian_exact(arr), arr.trunc)


def is_flow_trivial(f: RatFn) -> bool:
    """True when f does not influence the flow: both Q- and P-partials vanish.

    Additive terms depending only on T and the parameters shift H_{J->K}
    without changing the system; both the gauge terms at negative orders and
    the residual constants in the eps -> 0 limits are of this kind.
    """
    return f.partial(Q_).is_zero() and f.partial(P_).is_zero()


def hamiltonian_gauge_terms(arr: DegenerationArrow) -> dict[int, RatFn]:
    """Negative-order coefficients of H_{J->K}.

    These are flow-trivial (functions of the parameters and T only), so they
    do not contribute to the system; they are reported rather than hidden.
    """
    series = degenerate_hamiltonian(arr)
    return {n: c for n, c in series.coeffs.items() if n < 0}


def hamiltonian_limit(arr: DegenerationArrow) -> RatFn:
    """Order-0 coefficient of H_{J->K}, the dynamical eps -> 0 limit.

    Raises if any negative-order coefficient involves Q or P, i.e. if the
    divergence were more than an additive gauge term.
    """
    series = degenerate_hamiltonian(arr)
    for n, c in sorted(series.coeffs.items()):
        if n < 0 and not is_flow_trivial(c):
            from .series import DivergesAtZero

            raise DivergesAtZero(n, c)
    return series.coeff(0)


def hamiltonian_limit_residual(arr: DegenerationArrow) -> RatFn:
    """hamiltonian_limit minus the target Hamiltonian, on the constraint.

    The residual must be flow-trivial for the degenerated system to converge
    to P_K; for most arrows it is identically zero, for VI -> V it is the
    parameter constant -A2*(A1 + A2 + A3).
    """
    HK = _relabel_to_target(
        system(arr.target).hamiltonian, len(system(arr.target).params)
    )
    return target_constraint_reduce(arr, hamiltonian_limit(arr) - HK)


def verify_hamiltonian_shift(arr: DegenerationArrow) -> bool:
    """H_{V->III} is H_V in the new coordinates plus Q*P, exactly (false elsewhere)."""
    if (arr.source, arr.target) != ("V", "III"):
        return False
    rhs = arr.pushforward(system("V").hamiltonian) + parse_expr("Q*P")
    return ratfn_equal(degenerate_hamiltonian_exact(arr), rhs)


# ----------------------------------------------------------------------
# derivation compatibility

def transformed_system_factor(arr: DegenerationArrow, name: str) -> EpsSeries:
    """The correction factor (1/r) * w(r) relating delta_K to w's transform.

    r is the derivation rescale (delta_J = r * delta_K).  Where delta_K
    commutes with the lifted subgroup the factor is 1 and the transformed
    system keeps the plain Hamiltonian form.
    """
    lifted = lift_generator(arr, name)
    args = {eps: lifted.eps_series, T_: lifted.action_series(T_)}
    w_r = ratfn_at_series(arr.deriv_rescale, args, arr.trunc)
    inv_r = EpsSeries.from_ratfn(arr.deriv_rescale, arr.trunc).inverse()
    return inv_r * w_r


# ----------------------------------------------------------------------
# structured verification (consumed by the CLI reports and the tests)

def verify_eps_action(arr: DegenerationArrow, name: str) -> list[tuple[str, bool]]:
    """Branch consistency of S_name: S(eps)^k equals the exact action on eps^k.

    eps^k is rational in the source parameters (k = 1 for the birational
    arrows), so its image under the word is exact; the declared branch's
    k-th power, U(A, eps^k), must equal it as a rational function.  Where
    the arrow carries a tau sign, S(tau)^2 must be the exact image of
    tau^2 = -t.
    """
    word, k = arr.subgroup_words[name], arr.eps_power
    declared = arr.eps_exact[name][0].substitute({eps: RatFn.variable(eps) ** k})
    results = [(f"{name}(eps)^{k}", ratfn_equal(declared, _eps_power_image(arr, word)))]
    if arr.tau_signs.get(name) is not None:
        t_img = arr.pushforward(_word_on_symbol(arr.source, word, t_))
        results.append((f"{name}(tau)^2", ratfn_equal(arr.tau_pushforward**2, -t_img)))
    return results


def verify_eps_actions(arr: DegenerationArrow) -> list[tuple[str, bool]]:
    """verify_eps_action for every subgroup generator, in order."""
    return [r for name in arr.subgroup_words for r in verify_eps_action(arr, name)]


def verify_subgroup_relation(arr: DegenerationArrow, rel: str, side: str) -> bool:
    """One W_K fundamental relation, on one side.

    (a) the relation word, expanded into W_J letters, is the identity on the
        source field; (b) on the lifted actions every A_i returns to A_i
        and, under the declared branches, eps to eps.  The eps part is exact
        (see _branch_exact): the composite branch eps * c * (1 + O(eps)) has
        k-th power U(A, u), u = eps^k, so it is eps iff U = u and c = 1.
    """
    s_word = dict(fundamental_relations(arr.target))[rel]
    if side == "a":
        expanded = tuple(
            letter for s_name in s_word for letter in arr.subgroup_words["S" + s_name[1:]]
        )
        return verify_relation(arr.source, expanded)
    if side != "b":
        raise ValueError(f"relation side must be 'a' or 'b', not {side!r}")
    # (b) compose the lifted parameter actions.
    n_params = len(system(arr.target).params)
    state_params = {A[i]: RatFn.variable(A[i]) for i in range(n_params)}
    u = RatFn.variable(eps)  # in the u-state, eps stands for u = eps^k
    state_u, lead = u, RatFn.const(1)
    for s_name in reversed(s_word):
        lifted = lift_generator(arr, "S" + s_name[1:])
        state_params = {Ai: lifted.param_image(f) for Ai, f in state_params.items()}
        state_u, lead = _act_on_eps_power(lifted, state_u, lead)
    return all(
        ratfn_equal(state_params[A[i]], RatFn.variable(A[i]))
        for i in range(n_params)
    ) and ratfn_equal(state_u, u) and ratfn_equal(lead, RatFn.const(1))


def verify_subgroup_relations(arr: DegenerationArrow) -> list[tuple[str, bool, bool]]:
    """(label, side a, side b) for every W_K fundamental relation."""
    return [
        (rel, verify_subgroup_relation(arr, rel, "a"), verify_subgroup_relation(arr, rel, "b"))
        for rel, _ in fundamental_relations(arr.target)
    ]


@cache
def _branch_exact(arr: DegenerationArrow, name: str) -> tuple[RatFn, RatFn]:
    """S_name's declared branch as side (b) composes it: the arrow's exact
    pair (U, c), S^k = U(A, eps^k) with lead c.  Writing eps^k as u is sound
    only while the lifted parameter actions are free of eps."""
    if any(f.uses(eps) for f in lift_generator(arr, name).param_actions.values()):
        raise BranchDataError(f"{arr.name} {name}: the lifted parameter actions depend on eps")
    return arr.eps_exact[name]


def _in_u(f: Poly, k: int) -> Poly | None:
    """g with f(eps) = g(eps^k); None when an eps-degree of f is not a multiple of k."""
    slices = f.slices(eps).items()
    if any(e % k for e, _ in slices):
        return None
    return sum((part.mul_key(var_key(eps) * (e // k)) for e, part in slices), Poly.zero())


def _act_on_eps_power(lifted: LiftedGenerator, state_u: RatFn, lead: RatFn) -> tuple:
    """One letter S of side (b) on its exact eps data: U(A, u) becomes
    U(S(A), U_S(A, u)) and the lead c becomes S(c) * c_S."""
    u_image, c = _branch_exact(lifted.arrow, lifted.name)
    return (lifted.param_image(state_u).substitute({eps: u_image}),
            lifted.param_image(lead) * c)
