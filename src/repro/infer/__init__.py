"""``repro.infer`` — tape-free compiled inference engines.

The paper's efficiency claim (Section IV-E) is that *only the
lightweight student* runs at inference.  This package takes that to its
conclusion: :class:`CompiledStudent` exports a fitted student into a
flat, pure-numpy forward — no autograd tensors, no graph bookkeeping,
one shape-polymorphic scratch plan serving every batch size up to a
high-water capacity, and distillation-only outputs (the last-layer
attention average) skipped unless requested — while staying **bitwise
identical** to the module forward.

Every inference consumer accepts an ``engine`` selector from
:data:`ENGINES` (``"module"`` | ``"compiled"``):
``TimeKDForecaster.predict``/``evaluate``, ``evaluate_student``,
``ForecastService`` (and therefore ``StreamingForecaster``), and the
``predict``/``serve``/``stream``/``evaluate`` CLI subcommands via
``--engine``.  The compiled engine has one numeric mode, float32, the
module path's own dtype, so the two engines are interchangeable
everywhere.
"""

from .engine import ENGINES, CompiledStudent, compile_student, resolve_engine

__all__ = ["ENGINES", "CompiledStudent", "compile_student", "resolve_engine"]
