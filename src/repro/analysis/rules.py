"""The rule pack: the repo's contracts, as machine-checked AST rules.

Each rule encodes one invariant the test suite can only verify after
the fact (and only on the inputs it happens to run):

========  ==========================================================
DET001    identity-relevant trees draw randomness only through
          ``utils.rng`` (``derive_rng`` / ``derive_seed_sequence`` /
          ``make_rng``); unseeded ``np.random.default_rng()``, the
          legacy ``np.random.*`` globals and stdlib ``random`` break
          the ``--jobs N == --jobs 1`` byte-identity contract.
DET002    no wall-clock reads (``time.time``, ``datetime.now``, ...)
          in identity-relevant trees: anything wall-clock-derived
          that leaks into ``PipelineConfig.identity()`` or an
          artifact-store key silently splits the content address.
          Timing uses ``utils.stopwatch`` (``perf_counter``).
BKD001    hot kernels are reached through ``current_backend()`` (or
          the facade functions that wrap it), never by direct
          reference-implementation call -- a bypassed seam reverts
          call sites to one tier and voids the equivalence contract.
SRV001    no blocking calls (``time.sleep``, sync socket/file IO,
          ``subprocess``) inside ``async def`` in ``serve/``: one
          blocked event loop stalls every in-flight request.
SRV002    ``serve/`` raises the :mod:`repro.errors` taxonomy, not
          generic builtins, and never uses a bare ``except:`` --
          the HTTP status mapping and the retry policy both dispatch
          on exception class.
REG001    ``REGISTRY.register`` happens at module import scope only;
          registrations inside functions make the registry's contents
          dependent on call order and invisible to ``--list`` style
          introspection.
CFG001    every ``PipelineConfig`` field is either consumed by
          ``identity()`` or listed in the explicit class-level
          ``IDENTITY_EXCLUDED`` set -- the mechanism that makes
          "this knob does not change results" a reviewed, documented
          decision instead of a silent ``.pop()``.
OBS001    operational output in ``serve/`` and the experiment runner
          goes through :mod:`repro.obs.log` (JSON-lines events with a
          stable taxonomy), never ad-hoc ``print()`` or bare
          ``sys.stderr.write`` -- unstructured lines are invisible to
          log tooling and interleave corruptly across the server
          and pool processes sharing one stderr.
========  ==========================================================

Suppress a *deliberate* violation inline with
``# repro: allow[RULE-ID] reason=...`` -- the reason is mandatory
(see :mod:`repro.analysis.engine`).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import FileContext, Finding, PathScopedRule, Rule

__all__ = [
    "DeterministicRandomness",
    "NoWallClockInIdentity",
    "BackendDispatchOnly",
    "NoBlockingInAsyncServe",
    "ServeErrorTaxonomy",
    "RegisterAtImportScope",
    "ConfigIdentityCoverage",
    "StructuredLoggingOnly",
    "default_rules",
]

#: Subtrees whose outputs feed result identity (artifact keys, golden
#: hashes, served responses).  ``utils/rng.py`` itself is the sanctioned
#: home of ``default_rng`` and is outside these trees by design.
IDENTITY_TREES = (
    "core/",
    "partialcube/",
    "graphs/",
    "partitioning/",
    "mapping/",
    "experiments/",
)


def _attr_chain(node: ast.AST) -> tuple[str, ...]:
    """``a.b.c`` -> ("a", "b", "c"); empty when not a pure name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


class DeterministicRandomness(PathScopedRule):
    """DET001: identity trees must seed through ``utils.rng``."""

    id = "DET001"
    title = "unseeded / legacy randomness in an identity-relevant tree"
    hint = (
        "derive the generator from the run identity: "
        "utils.rng.derive_rng(root, *identity) or make_rng(seed); "
        "never draw from process-global randomness"
    )
    paths = IDENTITY_TREES

    #: ``np.random`` attributes that are legitimate *types/constructors*
    #: (annotations, isinstance checks, seeded construction in rng.py).
    _SANCTIONED_NP = {"Generator", "SeedSequence", "BitGenerator", "default_rng"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield ctx.finding(
                            self,
                            node,
                            "stdlib 'random' imported in an identity-relevant "
                            "tree; its global state breaks run determinism",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield ctx.finding(
                        self,
                        node,
                        "stdlib 'random' imported in an identity-relevant "
                        "tree; its global state breaks run determinism",
                    )
            elif isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if len(chain) == 3 and chain[0] in ("np", "numpy") and chain[1] == "random":
                    leaf = chain[2]
                    if leaf == "default_rng":
                        unseeded = not node.args or (
                            isinstance(node.args[0], ast.Constant)
                            and node.args[0].value is None
                        )
                        if unseeded and not node.keywords:
                            yield ctx.finding(
                                self,
                                node,
                                "np.random.default_rng() without a seed is "
                                "OS-entropy randomness",
                            )
                    elif leaf not in self._SANCTIONED_NP:
                        yield ctx.finding(
                            self,
                            node,
                            f"legacy global np.random.{leaf}() draws from "
                            "shared process state",
                        )


class NoWallClockInIdentity(PathScopedRule):
    """DET002: wall-clock reads are banned where identity is computed."""

    id = "DET002"
    title = "wall-clock read in an identity-relevant tree"
    hint = (
        "time stages with utils.stopwatch.Stopwatch (perf_counter); "
        "wall-clock values must never feed PipelineConfig.identity() "
        "or an artifact-store key"
    )
    paths = IDENTITY_TREES + ("api/",)

    _WALL_CLOCK_LEAVES = {"now", "utcnow", "today", "fromtimestamp"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if not chain:
                continue
            if chain[-2:-1] == ("time",) and chain[-1] in ("time", "time_ns"):
                yield ctx.finding(
                    self, node, f"time.{chain[-1]}() reads the wall clock"
                )
            elif chain[-1] in self._WALL_CLOCK_LEAVES and any(
                part in ("datetime", "date") for part in chain[:-1]
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"{'.'.join(chain)}() reads the wall clock",
                )


class BackendDispatchOnly(PathScopedRule):
    """BKD001: kernels go through ``current_backend()`` or a facade."""

    id = "BKD001"
    title = "kernel reached without the current_backend() seam"
    hint = (
        "call the facade (core.kernels / utils.bitops / "
        "graphs.algorithms / partialcube.djokovic) or dispatch via "
        "repro.core.backend.current_backend()"
    )
    exclude = ("core/backend.py", "core/backend_numba.py", "analysis/")

    #: KernelBackend protocol methods: attribute calls on anything that
    #: is not the seam (or a module facade) bypass dispatch.
    KERNEL_METHODS = {
        "vertex_lsb_sums",
        "greedy_fixpoint",
        "all_pairs_distances",
        "argsort_labels",
        "popcount_labels",
        "pairwise_hamming",
        "djokovic_classes",
    }

    #: Reference implementations with their sanctioned home modules
    #: (the facade that owns them may call them; nobody else may).
    REFERENCE_IMPLS = {
        "_djokovic_classes_loop": ("partialcube/djokovic.py",),
        "_djokovic_classes_vectorized": ("partialcube/djokovic.py",),
        "swap_pass_reference": ("core/swaps.py",),
        "kl_swap_pass_reference": ("core/swaps.py",),
        "build_kernels": (),
        "_bitwise_count_fallback": ("utils/bitops.py",),
        "_bitwise_count_swar": ("utils/bitops.py",),
    }

    #: Backend classes: constructing one outside the backend module
    #: pins call sites to a single tier.
    BACKEND_CLASSES = {"NumpyBackend", "NumbaBackend", "NumbaParallelBackend"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        rel = ctx.relpath.as_posix()
        module_names = _imported_module_names(ctx.tree)
        backend_vars = _names_bound_from(ctx.tree, "current_backend")
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modname = ""
                if isinstance(node, ast.ImportFrom):
                    modname = node.module or ""
                    imported = [a.name for a in node.names]
                else:
                    imported = [a.name for a in node.names]
                if modname.endswith("backend_numba") or any(
                    n.endswith("backend_numba") for n in imported
                ):
                    yield ctx.finding(
                        self,
                        node,
                        "repro.core.backend_numba is backend-internal; import "
                        "repro.core.backend and dispatch instead",
                    )
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        if alias.name in self.BACKEND_CLASSES:
                            yield ctx.finding(
                                self,
                                node,
                                f"importing {alias.name} pins call sites to one "
                                "tier; use current_backend()",
                            )
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
                homes = self.REFERENCE_IMPLS.get(name)
                if homes is not None and rel not in homes:
                    yield ctx.finding(
                        self,
                        node,
                        f"direct reference-implementation call {name}() "
                        "bypasses the backend seam",
                    )
                elif name in self.BACKEND_CLASSES:
                    yield ctx.finding(
                        self,
                        node,
                        f"instantiating {name} pins this call site to one "
                        "tier; use current_backend()",
                    )
            elif isinstance(func, ast.Attribute) and func.attr in self.KERNEL_METHODS:
                recv = func.value
                # Sanctioned receivers: the seam itself, a variable bound
                # from it, or a module facade (module-attribute call).
                if isinstance(recv, ast.Call) and _attr_chain(recv.func)[-1:] == (
                    "current_backend",
                ):
                    continue
                if isinstance(recv, ast.Name) and (
                    recv.id in backend_vars or recv.id in module_names
                ):
                    continue
                chain = _attr_chain(recv)
                if chain and chain[0] in module_names:
                    continue
                yield ctx.finding(
                    self,
                    node,
                    f".{func.attr}() on {ast.unparse(recv)!r} bypasses "
                    "current_backend() dispatch",
                )
            elif isinstance(func, ast.Attribute) and func.attr in self.REFERENCE_IMPLS:
                if rel not in self.REFERENCE_IMPLS[func.attr]:
                    yield ctx.finding(
                        self,
                        node,
                        f"direct reference-implementation call .{func.attr}() "
                        "bypasses the backend seam",
                    )


class NoBlockingInAsyncServe(PathScopedRule):
    """SRV001: the serve event loop never blocks."""

    id = "SRV001"
    title = "blocking call inside async def"
    hint = (
        "await asyncio.sleep / use asyncio streams, or push the work "
        "onto the scheduler's executor (loop.run_in_executor)"
    )
    paths = ("serve/",)

    _BLOCKING_CHAINS = {
        ("time", "sleep"): "time.sleep() blocks the event loop",
        ("os", "system"): "os.system() blocks the event loop",
        ("socket", "socket"): "sync socket IO blocks the event loop",
        ("socket", "create_connection"): "sync socket IO blocks the event loop",
        ("urllib", "request", "urlopen"): "sync HTTP blocks the event loop",
    }
    _BLOCKING_PREFIXES = {("subprocess",): "subprocess in the event loop"}
    _BLOCKING_METHODS = {
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._scan_async_body(ctx, node)

    def _scan_async_body(
        self, ctx: FileContext, fn: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        # Descend through control flow but not into nested defs: a
        # nested sync def is typically shipped to an executor, and a
        # nested async def is scanned on its own by check().
        stack: list[ast.AST] = list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            stack.extend(ast.iter_child_nodes(node))

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        chain = _attr_chain(node.func)
        if chain in self._BLOCKING_CHAINS:
            yield ctx.finding(self, node, self._BLOCKING_CHAINS[chain])
            return
        for prefix, msg in self._BLOCKING_PREFIXES.items():
            if chain[: len(prefix)] == prefix:
                yield ctx.finding(self, node, msg)
                return
        if chain == ("open",):
            yield ctx.finding(
                self, node, "sync file IO (open) blocks the event loop"
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self._BLOCKING_METHODS
        ):
            yield ctx.finding(
                self,
                node,
                f"sync file IO (.{node.func.attr}) blocks the event loop",
            )


class ServeErrorTaxonomy(PathScopedRule):
    """SRV002: serve raises the errors.py taxonomy, not generic builtins."""

    id = "SRV002"
    title = "generic exception in serve/"
    hint = (
        "raise a repro.errors class (ReproError subclasses map to HTTP "
        "statuses; TransientError is the only retryable class) and name "
        "the exceptions you catch"
    )
    paths = ("serve/",)

    #: Generic builtins with no taxonomy meaning.  TypeError /
    #: NotImplementedError stay allowed: they mark API misuse by the
    #: *programmer*, which no status mapping or retry policy should see.
    BANNED_RAISES = {
        "Exception",
        "BaseException",
        "RuntimeError",
        "ValueError",
        "KeyError",
        "IndexError",
        "OSError",
        "IOError",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.finding(
                    self,
                    node,
                    "bare 'except:' swallows cancellation and system exits",
                    hint="catch the narrowest exception class that can occur",
                )
            elif isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc
                if isinstance(target, ast.Call):
                    target = target.func
                chain = _attr_chain(target)
                if chain and chain[-1] in self.BANNED_RAISES:
                    yield ctx.finding(
                        self,
                        node,
                        f"raise {chain[-1]} has no place in the serve error "
                        "taxonomy (status mapping / retry policy dispatch on "
                        "class)",
                    )


class RegisterAtImportScope(PathScopedRule):
    """REG001: ``REGISTRY.register`` only at module import scope."""

    id = "REG001"
    title = "REGISTRY.register outside module import scope"
    hint = (
        "move the registration to module top level (loops/ifs at top "
        "level are fine) so the registry's contents never depend on "
        "runtime call order"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._scan(ctx, ctx.tree.body, in_function=False)

    def _scan(
        self, ctx: FileContext, body: list[ast.stmt], in_function: bool
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Decorators evaluate in the *enclosing* scope.
                for deco in stmt.decorator_list:
                    yield from self._scan_expr(ctx, deco, in_function)
                yield from self._scan(ctx, stmt.body, in_function=True)
            elif isinstance(stmt, ast.ClassDef):
                for deco in stmt.decorator_list:
                    yield from self._scan_expr(ctx, deco, in_function)
                # A class body at module top level runs at import time.
                yield from self._scan(ctx, stmt.body, in_function)
            else:
                yield from self._scan_expr(ctx, stmt, in_function)

    def _scan_expr(
        self, ctx: FileContext, node: ast.AST, in_function: bool
    ) -> Iterator[Finding]:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                in_function = True  # anything below runs at call time
            if not isinstance(sub, ast.Call):
                continue
            chain = _attr_chain(sub.func)
            if chain[-2:] == ("REGISTRY", "register") or chain == ("register",):
                if chain == ("register",) and not self._is_registry_register(ctx):
                    continue
                if in_function:
                    yield ctx.finding(
                        self,
                        sub,
                        "registration inside a function body runs at call "
                        "time, not import time",
                    )

    @staticmethod
    def _is_registry_register(ctx: FileContext) -> bool:
        """Whether a bare ``register(...)`` name is the Registry method."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == "register":
                        return True
        return False


class ConfigIdentityCoverage(PathScopedRule):
    """CFG001: every PipelineConfig field is identity-consumed or excluded."""

    id = "CFG001"
    title = "PipelineConfig field outside the identity contract"
    hint = (
        "a config field must either reach identity() (asdict covers all "
        "fields) or be named in the class-level IDENTITY_EXCLUDED set "
        "with a comment saying why it cannot change results"
    )
    paths = ("api/pipeline.py",)

    CONFIG_CLASS = "PipelineConfig"
    EXCLUDED_SET = "IDENTITY_EXCLUDED"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        cls = next(
            (
                n
                for n in ast.walk(ctx.tree)
                if isinstance(n, ast.ClassDef) and n.name == self.CONFIG_CLASS
            ),
            None,
        )
        if cls is None:
            return
        fields = self._field_names(cls)
        excluded, excluded_node = self._excluded_set(cls)
        identity = next(
            (
                n
                for n in cls.body
                if isinstance(n, ast.FunctionDef) and n.name == "identity"
            ),
            None,
        )
        if identity is None:
            yield ctx.finding(
                self, cls, f"{self.CONFIG_CLASS} has no identity() method"
            )
            return
        if excluded_node is None:
            yield ctx.finding(
                self,
                cls,
                f"{self.CONFIG_CLASS} has no {self.EXCLUDED_SET} class "
                "attribute (the explicit identity-exclusion set)",
            )
            excluded = set()
        for name in sorted(excluded - fields):
            yield ctx.finding(
                self,
                excluded_node or cls,
                f"{self.EXCLUDED_SET} names {name!r}, which is not a "
                f"declared {self.CONFIG_CLASS} field",
            )
        uses_asdict = any(
            isinstance(n, ast.Call) and _attr_chain(n.func)[-1:] == ("asdict",)
            for n in ast.walk(identity)
        )
        loop_pops = self._excluded_loop_pop_targets(identity)
        for node in ast.walk(identity):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop"
                and node.args
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if arg.value not in excluded:
                    yield ctx.finding(
                        self,
                        node,
                        f"identity() drops {arg.value!r} without listing it "
                        f"in {self.EXCLUDED_SET}",
                    )
            elif isinstance(arg, ast.Name) and arg.id in loop_pops:
                pass  # the sanctioned `for name in IDENTITY_EXCLUDED` loop
            else:
                yield ctx.finding(
                    self,
                    node,
                    "identity() pops a dynamic key; only literal members of "
                    f"{self.EXCLUDED_SET} (or a loop over it) may be dropped",
                )
        if not uses_asdict:
            consumed = self._manual_keys(identity)
            for name in sorted(fields - consumed - excluded):
                yield ctx.finding(
                    self,
                    identity,
                    f"field {name!r} is neither consumed by identity() nor "
                    f"listed in {self.EXCLUDED_SET}",
                )

    @staticmethod
    def _field_names(cls: ast.ClassDef) -> set[str]:
        fields: set[str] = set()
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                ann = ast.unparse(stmt.annotation)
                if not ann.startswith("ClassVar"):
                    fields.add(stmt.target.id)
        return fields

    def _excluded_set(
        self, cls: ast.ClassDef
    ) -> tuple[set[str], ast.stmt | None]:
        for stmt in cls.body:
            target = None
            value = None
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                target, value = stmt.target.id, stmt.value
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
                stmt.targets[0], ast.Name
            ):
                target, value = stmt.targets[0].id, stmt.value
            if target != self.EXCLUDED_SET or value is None:
                continue
            names: set[str] = set()
            for node in ast.walk(value):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
            return names, stmt
        return set(), None

    def _excluded_loop_pop_targets(self, identity: ast.FunctionDef) -> set[str]:
        targets: set[str] = set()
        for node in ast.walk(identity):
            if (
                isinstance(node, ast.For)
                and isinstance(node.target, ast.Name)
                and _attr_chain(node.iter)[-1:] == (self.EXCLUDED_SET,)
            ):
                targets.add(node.target.id)
        return targets

    @staticmethod
    def _manual_keys(identity: ast.FunctionDef) -> set[str]:
        keys: set[str] = set()
        for node in ast.walk(identity):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys.add(key.value)
        return keys


class StructuredLoggingOnly(PathScopedRule):
    """OBS001: serve/ and the runner log through ``repro.obs.log``."""

    id = "OBS001"
    title = "unstructured output in an observability-covered tree"
    hint = (
        "emit a JSON-lines event instead: repro.obs.get_logger("
        "component).info(event, **fields); stdout protocol writers "
        "and CLI-facing reports take a reasoned # repro: allow[OBS001]"
    )
    paths = ("serve/", "experiments/runner.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if chain == ("print",):
                yield ctx.finding(
                    self,
                    node,
                    "print() bypasses the structured event log (no level, "
                    "no component, no trace id, unsafe interleaving)",
                )
            elif chain == ("sys", "stderr", "write") or (
                chain[-2:] == ("stderr", "write") and len(chain) == 2
            ):
                yield ctx.finding(
                    self,
                    node,
                    "bare sys.stderr.write bypasses the structured event "
                    "log; use repro.obs.get_logger(...)",
                )


def _imported_module_names(tree: ast.Module) -> set[str]:
    """Local names bound to *modules* by imports (facade receivers)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                # `from repro.utils import bitops` binds a module; we
                # cannot see that statically, so treat any from-import
                # of a lowercase bare name as a potential module facade.
                bound = alias.asname or alias.name
                if "." not in bound and bound.islower():
                    names.add(bound)
    return names


def _names_bound_from(tree: ast.Module, callee: str) -> set[str]:
    """Variable names ever assigned from ``callee(...)`` in this file."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and _attr_chain(node.value.func)[-1:] == (callee,)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def default_rules() -> tuple[Rule, ...]:
    """The full rule pack, in reporting-priority order."""
    return (
        DeterministicRandomness(),
        NoWallClockInIdentity(),
        BackendDispatchOnly(),
        NoBlockingInAsyncServe(),
        ServeErrorTaxonomy(),
        RegisterAtImportScope(),
        ConfigIdentityCoverage(),
        StructuredLoggingOnly(),
    )
