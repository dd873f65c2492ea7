"""Spatial point-pattern analysis of cellular antenna deployments.

The package covers the full chain from registry exports to fitted
models: geodesy and windowing (:mod:`cellpp.geom`), empirical summary
statistics (:mod:`cellpp.estimators`), model families and their exact
curves (:mod:`cellpp.models`), exact samplers (:mod:`cellpp.samplers`),
minimum-contrast fitting (:mod:`cellpp.fitting`), envelope-based
goodness of fit (:mod:`cellpp.gof`), and the pipeline/CLI front end
(:mod:`cellpp.pipeline`, :mod:`cellpp.cli`).
"""

__version__ = "0.1.0"

from . import errors
from . import estimators
from . import fitting
from . import gof
from . import models
from . import pipeline
from . import samplers
from .rng import RngStreamSpec
from .geom import (
    Disk,
    PointPattern,
    ProjectionSpec,
    Rectangle,
    clip,
    ingest,
    intensity_estimate,
    project,
    quadrat_stationarity,
)
