"""One verification problem: its inputs, and the chain built from them.

The paper's claim is one chain: the field on the grid, the two channel
spectra, and the Ritus levels E_p paired from them, which diagonalize
(gamma.Pi)^2 and so hold no mass.  ``Problem`` holds the inputs of that
chain and builds each link on first use, once: the grid, the grid operators,
both channel spectra from the operators' H, and the levels (one RitusLevels
record).  What reads a mass or an energy is built from the levels by its
reader: the exact field FW operator U per mass, pbar from the propagator's
p0.  A link whose build raises a RitusFWError keeps that error and re-raises
it, so it is not rebuilt by every reader.  The CLI, the tests and the README
all build through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .clifford import GammaRep, make_rep
from .errors import RitusFWError
from .field_profiles import FieldProfile
from .operators import GridOperators
from .ritus_basis import RitusLevels, assemble_levels
from .spectral_grid import Grid, build_grid, solve_channel

__all__ = ["Problem"]


class _link:
    """A link of the chain, built on first read and kept in the instance dict.

    Like functools.cached_property, except that a RitusFWError raised by the
    build is kept too and re-raised on every later read.
    """

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        cache = vars(obj)
        if self.name not in cache:
            try:
                cache[self.name] = self.build(obj)
            except RitusFWError as exc:
                cache[self.name] = exc
        value = cache[self.name]
        if isinstance(value, RitusFWError):
            raise value
        return value

    def __set__(self, obj, value):
        # a data descriptor, so a kept error is raised rather than returned
        raise AttributeError(f"{self.name} is built, not set")


@dataclass(frozen=True, eq=False)
class Problem:
    """Physical and grid inputs; grid, ops, spectra and levels are built lazily.

    Levels 0..n_max are resolved on an n_points grid.  Every input is
    required: the default run lives in the CLI's ``RunConfig`` alone.
    """

    profile: FieldProfile
    rep: GammaRep
    p_y: float
    e: float
    n_max: int
    n_points: int
    tol_eig: float

    @_link
    def grid(self):
        return Grid(build_grid(self.profile, self.p_y, self.n_max, e=self.e), self.n_points)

    @_link
    def ops(self) -> GridOperators:
        return GridOperators(self.rep, self.profile, self.p_y, self.e, self.grid)

    def _channel(self, sigma: int):
        ops = self.ops
        return solve_channel(ops.H[sigma], ops.V[sigma], self.grid, sigma, self.n_max + 1,
                             self.tol_eig)

    @_link
    def spec_plus(self):
        return self._channel(+1)

    @_link
    def spec_minus(self):
        return self._channel(-1)

    @_link
    def levels(self) -> RitusLevels:
        return assemble_levels(self.spec_plus, self.spec_minus, self.n_max, self.ops)

    def other_rep(self) -> "Problem":
        """The same problem in the other gamma representation.

        It shares this problem's grid and both channel spectra (built here if
        they are not yet), so the two representations pair the same k_n.
        """
        other = replace(self, rep=make_rep("second" if self.rep.variant == "first" else "first"))
        # a link keeps its value in the instance dict; seed it
        vars(other).update(grid=self.grid, spec_plus=self.spec_plus,
                           spec_minus=self.spec_minus)
        return other

    def refined(self, n_points: int) -> "Problem":
        """The same field on this problem's domain at n_points: the walls are not sized again."""
        other = replace(self, n_points=n_points)
        vars(other).update(grid=Grid(self.grid.domain, n_points))
        return other
