"""The observed order of a refinement ladder: ``Problem.refined`` rungs of one field.

Every rung shares its base problem's domain, so no Dirichlet wall shift
aliases into the observed order.
"""

import math

import numpy as np


def observed_order(hs, errors):
    """The slope of log error against log h, over the rungs with a nonzero error."""
    lh, le = np.array([(math.log(h), math.log(er)) for h, er in zip(hs, errors) if er > 0]).T
    return float(np.polyfit(lh, le, 1)[0])
