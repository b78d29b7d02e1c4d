"""One verification problem: its inputs, and the chain built from them.

The paper's claim is one chain: the two channel spectra, the Ritus levels
E_p paired from them, and the exact field FW operator U assembled from the
levels.  ``Problem`` holds the inputs of that chain and builds each link on
first use, once: the grid, both channel spectra, the grid operators, the
levels at the problem's p0, and U from the on-shell copies of those levels.
The CLI, the tests and the README all build through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .clifford import GammaRep, make_rep
from .field_profiles import FieldProfile
from .foldy_wouthuysen import field_fw_from_levels
from .operators import GridOperators
from .ritus_basis import assemble_level, on_shell_level
from .spectral_grid import GridConfig, build_grid, solve_channel

__all__ = ["Problem"]


@dataclass(frozen=True, eq=False)
class Problem:
    """Physical and grid inputs; grid, spectra, ops, levels and fw are built lazily.

    Levels 0..n_max are resolved; ``levels`` carry the off-shell energy p0,
    ``fw`` is built from their on-shell copies at mass m.  Every input is
    required: the default run lives in the CLI's ``RunConfig`` alone.
    """

    profile: FieldProfile
    rep: GammaRep
    p_y: float
    e: float
    m: float
    p0: float
    n_max: int
    grid_config: GridConfig
    tol_eig: float

    @cached_property
    def grid(self):
        return build_grid(self.profile, self.p_y, self.n_max, self.grid_config, e=self.e)

    def _channel(self, sigma: int):
        return solve_channel(self.profile, self.p_y, self.e, sigma, self.grid,
                             n_levels=self.n_max + 1, tol_eig=self.tol_eig)

    @cached_property
    def spec_plus(self):
        return self._channel(+1)

    @cached_property
    def spec_minus(self):
        return self._channel(-1)

    @cached_property
    def ops(self) -> GridOperators:
        return GridOperators(self.rep, self.profile, self.p_y, self.e, self.grid)

    @cached_property
    def levels(self) -> list:
        return [assemble_level(self.spec_plus, self.spec_minus, n, self.p0, self.ops)
                for n in range(self.n_max + 1)]

    @cached_property
    def fw(self):
        return field_fw_from_levels([on_shell_level(lv, self.m) for lv in self.levels],
                                    self.ops, self.m)

    def other_rep(self) -> "Problem":
        """The same problem in the other gamma representation.

        It shares this problem's grid and both channel spectra (built here if
        they are not yet), so the two representations pair the same k_n.
        """
        other = replace(self, rep=make_rep("second" if self.rep.variant == "first" else "first"))
        # cached_property keeps its value in the instance dict; seed it
        vars(other).update(grid=self.grid, spec_plus=self.spec_plus,
                           spec_minus=self.spec_minus)
        return other
