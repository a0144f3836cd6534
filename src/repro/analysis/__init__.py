"""Project-specific static analysis: ``repro lint``.

An AST lint engine (:mod:`repro.analysis.engine`) plus a rule pack
(:mod:`repro.analysis.rules`) that enforce the repo's contracts --
determinism, backend dispatch, serve hygiene, registry and config
discipline -- at CI time.  See ``docs/development.md`` for the rule
catalogue and the ``# repro: allow[RULE-ID] reason=...`` suppression
syntax.

Run it as ``python -m repro.analysis [paths...]`` or ``repro lint``.
"""
