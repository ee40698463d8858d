"""Response-based approachability loop.

Maintains the accumulator U_t = sum_tau (kappa_tau - s_tau) over points
kappa_t = (l_t (x) p_t, l_t) and targets s_t = (l*_t (x) b(l*_t), l*_t),
where (p_t, l*_t) is a (possibly approximate) minimax pair of the round game
on U_{t-1} and b is the best-response map b(l) = argmin_p <l, p>.

Two modes:
  * exact      -- the round game is solved on the raw accumulator and the
                  per-round inner product <U_{t-1}, kappa_t - s_t> is
                  certified nonpositive (up to solver tolerance);
  * normalized -- the game is solved on U_{t-1} / (t-1) and the measured
                  duality gap eps_t enters the certificate instead.

`ApproachState` is the accumulator of both this loop, over R^{d x (d+1)},
and the polynomial loop of `polydim`, over R^{d x D}; `_run_rounds` drives
either loop and builds its `Trajectory`.  A round that raises a
`SwapregError` leaves the trajectory of the completed rounds on the
exception as `partial`.  The driver records everything needed to evaluate
regret and certificates after the fact; nothing is estimated from theory
when it can be measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AdversaryFault, PremiseViolated, SwapregError
from .john import JohnDecomposition, Preconditioner, john_precondition
from .saddle import BilinearGame, SaddlePoint, solve_exact, solve_fpl
from .sets import ConvexSet, LinearImage

__all__ = ["Csp", "ApproachState", "RoundLog", "Trajectory", "step", "run",
           "run_preconditioned", "pythagorean_check"]


@dataclass
class Csp:
    """A point (l (x) p, l) of the approachability space R^{d x (d+1)}.

    In the polynomial loop `mat` holds the first D-1 feature columns and
    `vec` the constant one.
    """

    mat: np.ndarray  # (d, d), or (d, D-1)
    vec: np.ndarray  # (d,)


def _flat_pair(loss: np.ndarray, play: np.ndarray, out: np.ndarray) -> np.ndarray:
    d = loss.size
    np.outer(loss, play, out=out[:, :d])
    out[:, d] = loss
    return out


@dataclass
class ApproachState:
    """Running accumulator and averages of an approachability loop.

    Points live in R^{dim x width}: width is d+1 in the linear loop (the
    default) and the feature dimension D in the polynomial one.
    """

    dim: int
    width: int | None = None
    t: int = 0
    U: np.ndarray = field(init=False)
    kappa_sum: np.ndarray = field(init=False)
    s_sum: np.ndarray = field(init=False)
    norm_bound: float = 0.0  # measured max round norm B

    def __post_init__(self):
        if self.width is None:
            self.width = self.dim + 1
        self.U = np.zeros((self.dim, self.width))
        self.kappa_sum = np.zeros((self.dim, self.width))
        self.s_sum = np.zeros((self.dim, self.width))

    def accumulate(self, kappa: np.ndarray, s: np.ndarray) -> tuple[float, float]:
        """Add round t's point kappa_t and target s_t.

        Returns the invariant <U_{t-1}, kappa_t - s_t> and the certificate
        norm ||U_t|| / t = ||kappa_bar_t - s_bar_t||.
        """
        diff = kappa - s
        invariant_value = float(np.vdot(self.U, diff))
        self.U += diff
        self.kappa_sum += kappa
        self.s_sum += s
        self.t += 1
        self.norm_bound = max(self.norm_bound, float(np.linalg.norm(kappa)),
                              float(np.linalg.norm(s)))
        return invariant_value, float(np.linalg.norm(self.U)) / self.t

    @property
    def kappa_bar(self) -> Csp:
        t = max(self.t, 1)
        return Csp(self.kappa_sum[:, :-1] / t, self.kappa_sum[:, -1] / t)

    @property
    def s_bar(self) -> Csp:
        t = max(self.t, 1)
        return Csp(self.s_sum[:, :-1] / t, self.s_sum[:, -1] / t)

    def consistency_error(self) -> float:
        """|| U - t (kappa_bar - s_bar) || (should stay ~1e-12)."""
        return float(np.linalg.norm(self.U - (self.kappa_sum - self.s_sum)))


@dataclass
class RoundLog:
    t: int
    p_played: np.ndarray
    loss: np.ndarray
    invariant_value: float  # <U_{t-1}, kappa_t - s_t>, raw accumulator units
    game_gap: float         # duality gap of the solved round game
    game_value: float
    eps: float              # gap in normalized units (enters certificates)
    inst_loss: float
    cert_norm: float        # ||kappa_bar_t - s_bar_t||_F after this round


@dataclass
class Trajectory:
    pset: ConvexSet
    lset: ConvexSet
    mode: str
    rounds: list
    plays: np.ndarray
    losses: np.ndarray
    kappa_bar: Csp
    s_bar: Csp
    norm_bound: float
    eps: np.ndarray
    state: ApproachState
    seed: int
    preconditioner: Preconditioner | None = None
    decomposition: JohnDecomposition | None = None
    plays_original: np.ndarray | None = None
    losses_original: np.ndarray | None = None
    pset_original: ConvexSet | None = None
    lset_original: ConvexSet | None = None
    mixtures: list | None = None
    pool_sizes: list | None = None

    @property
    def T(self) -> int:
        return len(self.rounds)

    @property
    def certificate(self) -> float:
        """||kappa_bar_T - s_bar_T||_F, an upper bound on the approachability loss."""
        diff_mat = self.kappa_bar.mat - self.s_bar.mat
        diff_vec = self.kappa_bar.vec - self.s_bar.vec
        return math.sqrt(float(np.sum(diff_mat ** 2)) + float(np.sum(diff_vec ** 2)))

    @property
    def mean_eps(self) -> float:
        return float(self.eps.mean()) if self.eps.size else 0.0

    @property
    def certificate_bound(self) -> float:
        return 2.0 * self.norm_bound / math.sqrt(max(self.T, 1)) + self.mean_eps

    def original_frame(self) -> tuple[ConvexSet, np.ndarray, np.ndarray]:
        if self.plays_original is not None:
            return self.pset_original, self.plays_original, self.losses_original
        return self.pset, self.plays, self.losses


def _solve_round(game: BilinearGame, solver, fpl_iters: int, round_seed: int) -> SaddlePoint:
    if solver == "exact":
        return solve_exact(game)
    if solver == "fpl":
        return solve_fpl(game, fpl_iters, round_seed)
    raise ValueError(f"unknown solver {solver!r}")


def step(state: ApproachState, pset: ConvexSet, lset: ConvexSet, adversary,
         solver: str = "exact", fpl_iters: int = 1000, normalized: bool = False,
         round_seed: int = 0, loss_tol: float = 1e-7) -> RoundLog:
    """Play one round; mutates `state` and returns the round log.

    `adversary` is called as adversary(t, p_t) after p_t is fixed, so
    adaptive adversaries are allowed.
    """
    d = state.dim
    t = state.t + 1
    denom = float(t - 1) if (normalized and t > 1) else 1.0
    game_u = state.U / denom if denom != 1.0 else state.U
    game = BilinearGame(game_u[:, :d], game_u[:, d], pset, lset)
    sp = _solve_round(game, solver, fpl_iters, round_seed)

    b_point = pset.lmo(sp.l_star)
    s_flat = _flat_pair(sp.l_star, b_point, np.empty((d, d + 1)))

    p_t = sp.p_star
    loss = np.asarray(adversary(t, p_t), dtype=float).ravel()
    if loss.size != d or not lset.contains(loss, loss_tol):
        raise AdversaryFault(f"loss at round {t} is outside the loss set")
    kappa_flat = _flat_pair(loss, p_t, np.empty((d, d + 1)))

    invariant_value, cert_norm = state.accumulate(kappa_flat, s_flat)
    if normalized and t > 1:
        eps = sp.gap
    else:
        eps = sp.gap / max(t - 1, 1)
    return RoundLog(
        t=t,
        p_played=p_t,
        loss=loss,
        invariant_value=invariant_value,
        game_gap=sp.gap,
        game_value=sp.value,
        eps=eps,
        inst_loss=float(loss @ p_t),
        cert_norm=cert_norm,
    )


def _run_rounds(pset: ConvexSet, lset: ConvexSet, T: int, state: ApproachState,
                play_round, mode: str, seed: int, **extra) -> Trajectory:
    """Call play_round(t) -> RoundLog for t = 1..T and build the Trajectory.

    `play_round` must call the round function (`step`, `polydim.poly_step`)
    by its module-level name on every round, so that a replacement installed
    while the run is going is seen from the next round on.  `extra` holds
    further Trajectory fields that `play_round` fills round by round.  If a
    round raises a SwapregError, the Trajectory of the rounds completed
    before it is attached to the exception as `partial`.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    d = pset.dim
    rounds = []
    plays = np.empty((T, d))
    losses = np.empty((T, d))
    eps = np.empty(T)

    def trajectory(n: int) -> Trajectory:
        return Trajectory(
            pset=pset, lset=lset, mode=mode, rounds=rounds, plays=plays[:n],
            losses=losses[:n], kappa_bar=state.kappa_bar, s_bar=state.s_bar,
            norm_bound=state.norm_bound, eps=eps[:n], state=state, seed=seed, **extra)

    for t in range(1, T + 1):
        try:
            log = play_round(t)
        except SwapregError as exc:
            exc.partial = trajectory(t - 1)
            raise
        rounds.append(log)
        plays[t - 1] = log.p_played
        losses[t - 1] = log.loss
        eps[t - 1] = log.eps
    return trajectory(T)


def run(pset: ConvexSet, lset: ConvexSet, T: int, adversary,
        solver: str = "exact", fpl_iters: int = 1000, normalized: bool | None = None,
        seed: int = 0, fpl_iters_schedule=None) -> Trajectory:
    """Run the approachability loop for T rounds.

    `normalized` defaults to True for the FPL solver (approximate-equilibria
    mode) and False for the exact solver.  `fpl_iters_schedule` may map the
    round index to a per-round iteration budget.
    """
    if normalized is None:
        normalized = solver == "fpl"
    state = ApproachState(pset.dim)
    rng = np.random.default_rng(seed)

    def play_round(t: int) -> RoundLog:
        iters = fpl_iters if fpl_iters_schedule is None else int(fpl_iters_schedule(t))
        return step(state, pset, lset, adversary, solver=solver, fpl_iters=iters,
                    normalized=normalized, round_seed=int(rng.integers(2 ** 63)))

    return _run_rounds(pset, lset, T, state, play_round,
                       "normalized" if normalized else "exact", seed)


def run_preconditioned(pset: ConvexSet, lset: ConvexSet, T: int, adversary,
                       solver: str = "exact", fpl_iters: int = 1000,
                       normalized: bool | None = None, seed: int = 0,
                       fpl_iters_schedule=None) -> Trajectory:
    """John-position preconditioned loop.

    Computes A once so that A P is in John's position, then runs the loop on
    (P', L') = (A P, A^{-T} L) with the transported best-response map; plays
    are mapped back to the source frame before the adversary sees them.
    Both coordinate frames are recorded, in the partial trajectory of a
    faulted run too.
    """
    pre, decomp = john_precondition(pset)
    p_prime_set = pre.target
    l_prime_set = LinearImage(pre.inverse_transpose, lset)

    originals_p: list[np.ndarray] = []
    originals_l: list[np.ndarray] = []

    def transformed_adversary(t: int, p_prime: np.ndarray) -> np.ndarray:
        p = pre.point_to_source(p_prime)
        loss = np.asarray(adversary(t, p), dtype=float).ravel()
        if not lset.contains(loss, 1e-7):
            raise AdversaryFault(f"loss at round {t} is outside the loss set")
        originals_p.append(p)
        originals_l.append(loss)
        return pre.loss_to_target(loss)

    def add_source_frame(traj: Trajectory) -> Trajectory:
        # A round can pass the check above and still fail the engine's own
        # check in the target frame, so keep only the completed rounds.
        n = traj.T
        traj.preconditioner = pre
        traj.decomposition = decomp
        traj.plays_original = np.array(originals_p[:n]).reshape(n, pset.dim)
        traj.losses_original = np.array(originals_l[:n]).reshape(n, pset.dim)
        traj.pset_original = pset
        traj.lset_original = lset
        return traj

    try:
        traj = run(p_prime_set, l_prime_set, T, transformed_adversary, solver=solver,
                   fpl_iters=fpl_iters, normalized=normalized, seed=seed,
                   fpl_iters_schedule=fpl_iters_schedule)
    except SwapregError as exc:
        if exc.partial is not None:
            add_source_frame(exc.partial)
        raise
    return add_source_frame(traj)


def pythagorean_check(vectors, bound: float, eps=None,
                      premise_slack: float = 1e-9):
    """Verify the (approximate) Pythagorean inequality on a vector sequence.

    Checks the premise <mean of v_1..v_{t-1}, v_t> <= eps_t for every t >= 2
    (raising PremiseViolated(t) at the first failure) and then returns
    (holds, lhs, rhs) for

        lhs = ||sum_t v_t||,   rhs = sqrt(T B^2 + 2 sum_t (t-1) eps_t).
    """
    V = np.asarray(vectors, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    T = V.shape[0]
    if eps is None:
        eps_arr = np.zeros(T)
    else:
        eps_arr = np.asarray(eps, dtype=float).ravel()
        if eps_arr.size != T:
            raise ValueError("eps must have one entry per vector")
    norms = np.linalg.norm(V, axis=1)
    if np.any(norms > bound * (1.0 + 1e-9) + 1e-12):
        raise ValueError("a vector exceeds the stated norm bound")
    scale = max(bound, 1.0)
    running = np.zeros(V.shape[1])
    for t in range(2, T + 1):
        running += V[t - 2]
        if float(running @ V[t - 1]) / (t - 1) > eps_arr[t - 1] + premise_slack * scale:
            raise PremiseViolated(t)
    running += V[T - 1]
    lhs = float(np.linalg.norm(running))
    rhs = math.sqrt(T * bound ** 2 + 2.0 * float(np.sum(np.arange(T) * eps_arr)))
    return lhs <= rhs + 1e-9 * (1.0 + rhs), lhs, rhs
