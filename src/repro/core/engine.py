"""The mapping session object: compiled specs plus caches shared across runs.

A :class:`MappingEngine` owns one :class:`~repro.core.mapping.UnifiedMapper`
(one operating point + algorithm configuration) and the caches that let the
rest of the system evaluate the same specification many times without
re-deriving anything:

* **spec cache** — ``UseCaseSet`` → :class:`~repro.core.spec.CompiledSpec`
  (compiling freezes the set, so a hit can never be stale);
* **requirement cache** — (spec hash, resolved grouping) →
  ``GroupRequirement``/``_Worklist`` bundle, shared by every refinement
  candidate, worst-case mesh attempt and sweep point;
* **evaluation cache** — (group, endpoint-placement projection) → the
  group's flow allocations, which makes repeated fixed-placement
  evaluations (the annealing/tabu inner loop) hit instead of re-mapping;
* **result cache** — (spec hash, grouping, method) → ``MappingResult`` for
  full mapping runs, shared by sweeps that revisit a design.

Engines are cheap to create; use :meth:`with_params` to derive a sibling at
a different operating point that *shares* the params-independent spec and
requirement caches (the frequency searches lean on this).

The result and evaluation caches are also *portable*:
:meth:`export_results` / :meth:`import_results` and
:meth:`export_evaluations` / :meth:`import_evaluations` serialise what an
engine computed, and :meth:`attach_store` points an engine at an on-disk
:class:`~repro.jobs.store.EngineStateStore` it reads keyed on cache misses
— the jobs layer uses this to warm-start every execution from what sibling
runs already computed (:meth:`cache_info` documents the counters that
prove it).

Everything the engine returns is bit-identical to driving
:class:`UnifiedMapper` directly — caches (including imported and
store-read state) only ever short-circuit deterministic recomputation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core.mapping import (
    GroupRequirement,
    GroupSpec,
    PairPlacement,
    UnifiedMapper,
    _Worklist,
)
from repro.core.result import MappingResult, UseCaseConfiguration
from repro.core.spec import CompiledSpec, compile_spec
from repro.core.switching import SwitchingGraph
from repro.core.usecase import UseCaseSet
from repro.exceptions import MappingError, ReproError
from repro.noc.slot_table import rotated_start_slots
from repro.noc.topology import Topology
from repro.params import MapperConfig, NoCParameters

__all__ = ["MappingEngine"]

SpecLike = Union[UseCaseSet, CompiledSpec]

#: sentinel distinguishing "no seed entry" from a cached infeasibility (None)
_MISSING = object()


class _RequirementBundle:
    """Everything derived from (spec, grouping) that mapping runs share."""

    __slots__ = (
        "requirements",
        "worklist",
        "order",
        "group_plans",
        "group_endpoints",
        "spec_core_names",
        "spec_hash",
        "groups_key",
    )

    def __init__(self, spec: CompiledSpec, resolved: Tuple[FrozenSet[str], ...]) -> None:
        self.spec_core_names = spec.core_names
        #: content identity of this bundle, for serialisable evaluation keys
        #: (the in-memory caches key on object identity instead)
        self.spec_hash = spec.spec_hash
        self.groups_key: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(sorted(group)) for group in resolved
        )
        compiled_groups = spec.groups_for(resolved)
        self.requirements: Tuple[GroupRequirement, ...] = tuple(
            GroupRequirement.from_compiled(group) for group in compiled_groups
        )
        self.worklist = _Worklist(self.requirements)
        #: global fixed-placement processing order (see _Worklist)
        self.order = self.worklist.placement_sequence()
        #: per group: its slice of ``order``, each requirement paired with
        #: the (member name, member flow) records to emit for it
        self.group_plans: Dict[int, List] = {req.group_id: [] for req in self.requirements}
        by_group = {req.group_id: req for req in self.requirements}
        for pair_req in self.order:
            requirement = by_group[pair_req.group_id]
            members = tuple(
                (member.name, flow)
                for member in requirement.members
                for flow in (member.flow_between(pair_req.source, pair_req.destination),)
                if flow is not None
            )
            self.group_plans[pair_req.group_id].append((pair_req, members))
        #: per group: the cores whose placement its evaluation depends on,
        #: as indices into the spec's interned core table (compact cache keys)
        self.group_endpoints: Dict[int, Tuple[int, ...]] = {
            group.group_id: tuple(spec.core_index[name] for name in group.endpoints)
            for group in compiled_groups
        }


def _outcome_to_doc(outcome: Optional[List[PairPlacement]]) -> Optional[str]:
    """Serialise one cached group evaluation (``None`` = cached infeasibility).

    Only the mapper's irreducible *decisions* are stored — the switch path
    and the starting TDMA slots of each aggregated pair.  Everything else a
    :class:`PairPlacement` carries is derivable: ``evaluate_group_fixed``
    emits exactly one entry per plan item, in plan order, with the plan's
    own member records and ``cost_terms = bandwidth × hops`` over them, and
    the Æthereal pipelined slot assignment is the per-hop rotation of the
    starting slots along the path (``ResourceState._plan``'s construction) —
    so the import side reattaches members from the live bundle and
    recomputes terms and per-link slots bit-identically instead of
    round-tripping them.

    The whole outcome packs into **one string** — ``;``-separated pair
    segments of ``path:starts`` dot-separated ints (e.g.
    ``"0.1.2:5.6;3.4:0"``) — so a stored evaluation context deserialises as
    a few hundred JSON strings instead of hundreds of thousands of number
    tokens; :func:`_parse_outcome_doc` unpacks it with C-speed splits.
    """
    if outcome is None:
        return None
    segments = []
    for entry in outcome:
        path = entry.switch_path
        starts: Tuple[int, ...] = ()
        if entry.link_slots:
            starts = entry.link_slots[(path[0], path[1])]
        segments.append(
            ".".join(map(str, path)) + ":" + ".".join(map(str, starts))
        )
    return ";".join(segments)


def _parse_outcome_doc(
    document: str, expected_pairs: int
) -> Optional[List[Tuple[Tuple[int, ...], Tuple[int, ...]]]]:
    """Unpack a packed outcome string into (path, starts) tuples, or ``None``.

    Returns ``None`` for anything that does not parse cleanly into
    ``expected_pairs`` non-empty integer paths — a foreign or corrupt entry
    degrades to a recomputation, never an error.
    """
    if not isinstance(document, str):
        return None
    pairs: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    try:
        for segment in document.split(";"):
            path_part, _, starts_part = segment.partition(":")
            path = tuple(map(int, path_part.split(".")))
            starts = tuple(map(int, starts_part.split("."))) if starts_part else ()
            pairs.append((path, starts))
    except ValueError:
        return None
    if len(pairs) != expected_pairs:
        return None
    return pairs


def _rotated_slots(
    path: Tuple[int, ...], starts: Tuple[int, ...], size: int
) -> Dict[Tuple[int, int], Tuple[int, ...]]:
    """Per-link slot assignment from the starting slots.

    Hop ``i`` carries the starts rotated by ``i mod size`` — the exact
    tuples ``ResourceState._plan`` builds, via the same shared
    :func:`~repro.noc.slot_table.rotated_start_slots` helper, so imported
    evaluations reproduce the planner's assignments structurally.
    """
    if not starts or len(path) < 2:
        return {}
    assignment: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for hop in range(len(path) - 1):
        link = (path[hop], path[hop + 1])
        assignment[link] = rotated_start_slots(starts, hop % size, size)
    return assignment


def _outcome_from_pairs(
    pairs: List[Tuple[Tuple[int, ...], Tuple[int, ...]]],
    plan: List,
    slot_table_size: int,
) -> List[PairPlacement]:
    """Rebuild one group evaluation against its bundle's plan (see above).

    ``pairs`` is :func:`_parse_outcome_doc` output (already validated
    against the plan length); ``plan`` is the bundle's ``group_plans``
    slice for the group — members are taken from it by position (they are
    the *same* objects a cold evaluation would use) and cost terms /
    per-link slots are recomputed with the exact operations the cold path
    performs.
    """
    outcome: List[PairPlacement] = []
    for (path, starts), (_pair_req, members) in zip(pairs, plan):
        hops = len(path) - 1
        outcome.append(
            PairPlacement(
                members=members,
                switch_path=path,
                link_slots=_rotated_slots(path, starts, slot_table_size),
                cost_terms=tuple(flow.bandwidth * hops for _name, flow in members),
            )
        )
    return outcome


class _GroupOutcome:
    """One group's feasible fixed-placement evaluation, possibly imported.

    Wraps either the eagerly computed :class:`PairPlacement` list (a cold
    evaluation) or the serialised document plus its bundle plan (an imported
    one).  Imported entries stay documents until something actually needs
    the live objects — the refiners *screen* hundreds of candidates through
    :meth:`MappingEngine.placement_cost`, which only needs the per-use-case
    cost sums :meth:`name_sums` derives with plain float arithmetic, and
    *materialise* only accepted moves (:attr:`entries`).

    ``name_sums`` is memoised per outcome, so revisited candidates skip the
    accumulation entirely — computed and imported evaluations alike.
    """

    __slots__ = ("_entries", "_doc", "_plan", "_size", "_sums")

    def __init__(self, entries=None, doc=None, plan=None, size=0):
        self._entries = entries
        self._doc = doc
        self._plan = plan
        self._size = size
        self._sums = None

    @property
    def entries(self) -> List[PairPlacement]:
        """The live placement list (imported documents rebuild on first use)."""
        cached = self._entries
        if cached is None:
            cached = _outcome_from_pairs(self._doc, self._plan, self._size)
            self._entries = cached
        return cached

    def name_sums(self, member_names) -> Tuple[float, ...]:
        """Per-member-use-case cost sums, in ``member_names`` order.

        Replicates the historical global walk's accumulation exactly: each
        name starts at integer ``0`` and adds its ``bandwidth × hops`` terms
        in plan order (every use case belongs to exactly one group, so the
        interleaved global walk performed precisely these additions for it).
        """
        cached = self._sums
        if cached is not None:
            return cached
        sums: Dict[str, float] = {name: 0 for name in member_names}
        entries = self._entries
        if entries is not None:
            for entry in entries:
                terms = entry.cost_terms
                members = entry.members
                for position in range(len(terms)):
                    name = members[position][0]
                    sums[name] = sums[name] + terms[position]
        else:
            # Imported document: the terms are bandwidth × hops over the
            # plan's member flows — same floats the cold path produces,
            # without building any PairPlacement.
            for (path, _starts), (_pair_req, members) in zip(
                self._doc, self._plan
            ):
                hops = len(path) - 1
                for name, flow in members:
                    sums[name] = sums[name] + flow.bandwidth * hops
        cached = tuple(sums[name] for name in member_names)
        self._sums = cached
        return cached


class MappingEngine:
    """Session object owning compiled specs and cross-run mapping caches."""

    #: bound on cached fixed-placement group evaluations (LRU)
    _EVAL_CACHE_SIZE = 8192
    #: bound on cached full mapping results (LRU)
    _RESULT_CACHE_SIZE = 128
    #: bound on cached compiled specs and set-identity fast-path entries (LRU)
    _SPEC_CACHE_SIZE = 256
    #: bound on cached requirement bundles (LRU)
    _BUNDLE_CACHE_SIZE = 64

    def __init__(
        self,
        params: NoCParameters | None = None,
        config: MapperConfig | None = None,
    ) -> None:
        self.params = params or NoCParameters()
        self.config = config or MapperConfig()
        self.mapper = UnifiedMapper(params=self.params, config=self.config)
        #: spec hash -> CompiledSpec (authoritative, params-independent)
        self._specs: "OrderedDict[str, CompiledSpec]" = OrderedDict()
        #: id(UseCaseSet) -> (set, CompiledSpec) fast path; the entry pins
        #: the keyed set so its id cannot be recycled while it exists, and
        #: the identity check guards a key surviving its set
        self._specs_by_id: "OrderedDict[int, Tuple[UseCaseSet, CompiledSpec]]" = (
            OrderedDict()
        )
        #: (spec hash, resolved grouping) -> _RequirementBundle
        self._bundles: "OrderedDict[Tuple[str, Tuple[FrozenSet[str], ...]], _RequirementBundle]" = (
            OrderedDict()
        )
        #: (id(bundle), id(topology), group id, endpoint projection) ->
        #: (bundle, topology, group evaluation | None); the bundle and
        #: topology references pin their ids against recycling
        self._group_evals: "OrderedDict" = OrderedDict()
        #: (spec hash, resolved grouping, method name) -> MappingResult
        self._results: "OrderedDict" = OrderedDict()
        #: spec hash -> compiled worst-case spec (see worst_case)
        self._worst_specs: "OrderedDict[str, CompiledSpec]" = OrderedDict()
        #: exported-result documents offered to this engine (import_results);
        #: shared by reference with with_params siblings so operating-point
        #: probes can index the entries that match *their* params
        self._seed_entries: List[Dict] = []
        #: result-cache key -> raw exported document, for entries matching
        #: this engine's operating point; deserialised lazily on a map()
        #: miss, so a large corpus costs nothing until a job actually needs
        #: one of its mappings
        self._seed_index: Dict = {}
        #: result-cache keys that were materialised from seed entries rather
        #: than computed here; export_results skips them so a seeded engine
        #: never re-exports (and thereby snowballs) the corpus it was fed
        self._imported_keys: set = set()
        #: exported-evaluation documents offered via import_evaluations;
        #: shared by reference with with_params siblings (same discipline as
        #: ``_seed_entries``)
        self._seed_eval_docs: List[Dict] = []
        #: serialisable evaluation key -> raw outcome document, for entries
        #: matching this engine's operating point; consulted (and drained)
        #: on evaluation-cache misses
        self._eval_seed_index: Dict = {}
        #: evaluation keys that were materialised from imports; skipped by
        #: export_evaluations (never-re-export, like ``_imported_keys``)
        self._imported_eval_keys: set = set()
        #: optional EngineStateStore consulted directly on result and
        #: evaluation misses (duck-typed; attach_store documents the API)
        self._store = None
        #: evaluation contexts already fetched from the attached store
        self._store_contexts: set = set()
        #: id(topology) -> (topology, canonical doc, fingerprint); the
        #: topology reference pins its id, params-independent and shared
        #: with siblings
        self._topology_docs: "OrderedDict" = OrderedDict()
        #: lazily computed params/config documents (store key components)
        self._own_docs: Optional[Tuple[Dict, Dict]] = None
        #: cumulative hit/miss/import telemetry, shared with siblings so a
        #: frequency search's probes report into the owning job's stats;
        #: the field meanings are documented in :meth:`cache_info`
        self._counters: Dict[str, int] = {
            "result_hits": 0,
            "result_misses": 0,
            "evaluation_hits": 0,
            "evaluation_misses": 0,
            "imported_results": 0,
            "imported_evaluations": 0,
            "screen_hits": 0,
            "screen_misses": 0,
        }

    # ------------------------------------------------------------------ #
    # compilation and derived-state caches
    # ------------------------------------------------------------------ #
    def compile(self, use_cases: SpecLike) -> CompiledSpec:
        """Compile (and freeze) a use-case set, reusing any cached spec."""
        if isinstance(use_cases, CompiledSpec):
            return use_cases
        entry = self._specs_by_id.get(id(use_cases))
        if entry is not None and entry[0] is use_cases:
            self._specs_by_id.move_to_end(id(use_cases))
            return entry[1]
        spec = compile_spec(use_cases)
        existing = self._specs.get(spec.spec_hash)
        if existing is not None:
            self._specs.move_to_end(spec.spec_hash)
            spec = existing
        else:
            self._specs[spec.spec_hash] = spec
            if len(self._specs) > self._SPEC_CACHE_SIZE:
                self._specs.popitem(last=False)
        self._specs_by_id[id(use_cases)] = (use_cases, spec)
        if len(self._specs_by_id) > self._SPEC_CACHE_SIZE:
            self._specs_by_id.popitem(last=False)
        return spec

    def resolve_groups(
        self,
        spec: CompiledSpec,
        groups: GroupSpec = None,
        switching_graph: Optional[SwitchingGraph] = None,
    ) -> Tuple[FrozenSet[str], ...]:
        """Resolve and validate the smooth-switching grouping for a spec."""
        return self.mapper._resolve_groups(spec, groups, switching_graph)

    def requirements_for(
        self,
        spec: CompiledSpec,
        resolved_groups: Tuple[FrozenSet[str], ...],
    ) -> _RequirementBundle:
        """The cached requirement/worklist bundle of one (spec, grouping)."""
        key = (spec.spec_hash, resolved_groups)
        bundle = self._bundles.get(key)
        if bundle is None:
            bundle = _RequirementBundle(spec, resolved_groups)
            self._bundles[key] = bundle
            if len(self._bundles) > self._BUNDLE_CACHE_SIZE:
                self._bundles.popitem(last=False)
        else:
            self._bundles.move_to_end(key)
        return bundle

    def with_params(
        self,
        params: NoCParameters | None = None,
        config: MapperConfig | None = None,
    ) -> "MappingEngine":
        """A sibling engine at another operating point, sharing spec caches.

        Compiled specs, requirement bundles and worst-case specs are pure
        functions of the specification and are shared by reference; mapping
        results and evaluations (which depend on params/config) are not.
        """
        sibling = MappingEngine(params or self.params, config or self.config)
        sibling._specs = self._specs
        sibling._specs_by_id = self._specs_by_id
        sibling._bundles = self._bundles
        sibling._worst_specs = self._worst_specs
        sibling._counters = self._counters
        sibling._seed_entries = self._seed_entries
        if self._seed_entries:
            sibling._index_seeds(self._seed_entries)
        sibling._seed_eval_docs = self._seed_eval_docs
        if self._seed_eval_docs:
            sibling._index_eval_seeds(self._seed_eval_docs)
        sibling._store = self._store
        sibling._topology_docs = self._topology_docs
        return sibling

    # ------------------------------------------------------------------ #
    # full mapping runs
    # ------------------------------------------------------------------ #
    def map(
        self,
        use_cases: SpecLike,
        groups: GroupSpec = None,
        switching_graph: Optional[SwitchingGraph] = None,
        method_name: str = "unified",
    ) -> MappingResult:
        """Map a design onto the smallest feasible topology (cached).

        Semantically identical to :meth:`UnifiedMapper.map`; repeated calls
        for the same specification, grouping and method return the cached
        result object.
        """
        spec = self.compile(use_cases)
        resolved = self.resolve_groups(spec, groups, switching_graph)
        key = (spec.spec_hash, resolved, method_name)
        cached = self._results.get(key)
        if cached is not None:
            self._results.move_to_end(key)
            self._counters["result_hits"] += 1
            return cached
        seeded = self._materialise_seed(key)
        if seeded is None:
            seeded = self._materialise_store_result(key)
        if seeded is not None:
            self._counters["result_hits"] += 1
            return seeded
        self._counters["result_misses"] += 1
        if self.config.backend == "ilp":
            # The exact backend uses this engine's fixed-placement evaluator
            # (never map()), so there is no recursion; its result lands in
            # the same per-engine cache slot a heuristic run would.
            from repro.optimize.ilp import exact_mapping

            result = exact_mapping(spec, groups=resolved, engine=self)
        else:
            bundle = self.requirements_for(spec, resolved)
            result = self.mapper.map_requirements(
                spec.core_names, bundle.requirements, bundle.worklist, resolved,
                method_name,
            )
        self._results[key] = result
        if len(self._results) > self._RESULT_CACHE_SIZE:
            self._results.popitem(last=False)
        return result

    def map_batch(
        self,
        designs: Iterable[SpecLike],
        groups: GroupSpec = None,
        switching_graph: Optional[SwitchingGraph] = None,
        method_name: str = "unified",
    ) -> List[Optional[MappingResult]]:
        """Map several designs in one pass, sharing every engine cache.

        The batch entry point for sweeps: each design is compiled at most
        once for the whole batch (and across batches on the same engine).
        Designs that cannot be mapped yield ``None`` instead of raising, so
        a sweep row can record the failure the way the paper's figures do.
        """
        results: List[Optional[MappingResult]] = []
        for design in designs:
            try:
                results.append(
                    self.map(design, groups=groups, switching_graph=switching_graph,
                             method_name=method_name)
                )
            except MappingError:
                results.append(None)
        return results

    def worst_case(self, use_cases: SpecLike) -> MappingResult:
        """Map a design with the worst-case baseline method (cached).

        The synthetic worst-case use-case is itself derived (and compiled)
        once per spec hash, so growing-mesh attempts and repeated calls —
        the frequency searches probe many operating points — share one
        compilation.
        """
        from repro.core.worstcase import WORST_CASE_NAME, build_worst_case_use_case

        spec = self.compile(use_cases)
        worst_spec = self._worst_specs.get(spec.spec_hash)
        if worst_spec is None:
            worst = build_worst_case_use_case(spec.use_case_set, name=WORST_CASE_NAME)
            singleton = UseCaseSet([worst], name=f"{spec.name}-worst-case")
            worst_spec = self.compile(singleton)
            self._worst_specs[spec.spec_hash] = worst_spec
            if len(self._worst_specs) > self._SPEC_CACHE_SIZE:
                self._worst_specs.popitem(last=False)
        else:
            self._worst_specs.move_to_end(spec.spec_hash)
        return self.map(worst_spec, method_name="worst_case")

    # ------------------------------------------------------------------ #
    # fixed-placement evaluation (the refinement hot path)
    # ------------------------------------------------------------------ #
    def _evaluate_groups(
        self,
        bundle: _RequirementBundle,
        topology: Topology,
        placement: Mapping[str, int],
        only: Optional[FrozenSet[int]] = None,
    ) -> Dict[int, List]:
        """Evaluate (or recall) every group under a complete placement.

        Validates the placement globally (switch indices exist, switches are
        alive, per-switch core limit holds — mirroring the checks the
        per-state attachments perform in the general path), then evaluates
        each group against the memoised (group, endpoint-placement) cache.
        ``only`` restricts evaluation to a subset of group ids — the repair
        path evaluates just the failure-affected groups and splices the
        untouched groups' baseline allocations back in.  Raises
        :class:`MappingError` when the placement or any evaluated group is
        infeasible.
        """
        limit = self.params.max_cores_per_switch
        occupancy: Dict[int, int] = {}
        for core, switch in placement.items():
            topology.switch(switch)
            if topology.is_switch_down(switch):
                raise MappingError(
                    f"placement puts core {core!r} on failed switch {switch} "
                    f"of {topology.name!r}",
                    largest_topology=topology.name,
                )
            occupancy[switch] = occupancy.get(switch, 0) + 1
            if limit is not None and occupancy[switch] > limit:
                raise MappingError(
                    f"placement is infeasible on topology {topology.name!r}",
                    largest_topology=topology.name,
                )

        core_names = bundle.spec_core_names
        evals = self._group_evals
        outcomes: Dict[int, _GroupOutcome] = {}
        for requirement in bundle.requirements:
            group_id = requirement.group_id
            if only is not None and group_id not in only:
                continue
            projection = tuple(
                placement[core_names[index]]
                for index in bundle.group_endpoints[group_id]
            )
            key = (id(bundle), id(topology), group_id, projection)
            entry = evals.get(key)
            if entry is not None and entry[0] is bundle and entry[1] is topology:
                evals.move_to_end(key)
                self._counters["evaluation_hits"] += 1
                outcome = entry[2]
            else:
                imported = self._imported_evaluation(
                    bundle, topology, group_id, projection
                )
                if imported is not None:
                    self._counters["evaluation_hits"] += 1
                    self._counters["imported_evaluations"] += 1
                    pairs = imported[0]
                    outcome = None if pairs is None else _GroupOutcome(
                        doc=pairs,
                        plan=bundle.group_plans[group_id],
                        size=self.params.slot_table_size,
                    )
                else:
                    self._counters["evaluation_misses"] += 1
                    computed = self.mapper.evaluate_group_fixed(
                        topology, group_id, bundle.group_plans[group_id], placement
                    )
                    outcome = None if computed is None else _GroupOutcome(
                        entries=computed
                    )
                evals[key] = (bundle, topology, outcome)
                if len(evals) > self._EVAL_CACHE_SIZE:
                    evals.popitem(last=False)
            if outcome is None:
                raise MappingError(
                    f"placement is infeasible on topology {topology.name!r}",
                    largest_topology=topology.name,
                )
            outcomes[group_id] = outcome
        return outcomes

    def placement_cost(
        self,
        use_cases: SpecLike,
        topology: Topology,
        placement: Mapping[str, int],
        groups: GroupSpec = None,
        switching_graph: Optional[SwitchingGraph] = None,
    ) -> float:
        """Communication cost (Σ bandwidth × hops) of a complete placement.

        The cost-only twin of :meth:`evaluate_placement`: it runs (or
        recalls) the same per-group evaluations but skips materialising the
        ``MappingResult``, which the refiners only need for *accepted*
        candidates — a subsequent :meth:`evaluate_placement` for the same
        placement hits the evaluation cache and only pays for assembly.
        The float is bit-identical to summing the assembled result.

        Raises :class:`MappingError` when the placement is infeasible.
        """
        spec = self.compile(use_cases)
        resolved = self.resolve_groups(spec, groups, switching_graph)
        if any(name not in placement for name in spec.core_names):
            result = self.mapper.map_with_placement(
                spec.use_case_set, topology, placement, groups=resolved,
                validate=False,
            )
            return sum(
                configuration.total_bandwidth_hops()
                for configuration in result.configurations.values()
            )
        bundle = self.requirements_for(spec, resolved)
        outcomes = self._evaluate_groups(bundle, topology, placement)
        # Sum the per-group memoised per-use-case sums in the exact order
        # the historical global walk summed them: every use case belongs to
        # one group, so its additions were purely intra-group, and the final
        # reduction visited names in requirement/member order.
        values: List[float] = []
        for requirement in bundle.requirements:
            values.extend(
                outcomes[requirement.group_id].name_sums(requirement.member_names)
            )
        return sum(values)

    def screener(
        self,
        use_cases: SpecLike,
        topology: Topology,
        groups: GroupSpec = None,
        switching_graph: Optional[SwitchingGraph] = None,
    ):
        """A :class:`~repro.optimize.screen.CandidateScreen` for one context.

        The batch entry point of the refinement hot path: the returned
        screen is bound to this engine plus the compiled (spec, grouping)
        bundle and topology, answers exact candidate costs through the same
        cache hierarchy as :meth:`placement_cost` (its kernel evaluations
        are admitted to the evaluation cache, so exports, warm starts and
        the final :meth:`evaluate_placement` are unchanged), and batches
        admissibility/lower-bound screening over whole neighbour sets.
        ``screen_hits`` / ``screen_misses`` in :meth:`cache_info` account
        for its traffic.
        """
        from repro.optimize.screen import CandidateScreen

        spec = self.compile(use_cases)
        resolved = self.resolve_groups(spec, groups, switching_graph)
        bundle = self.requirements_for(spec, resolved)
        return CandidateScreen(self, spec, resolved, bundle, topology)

    def _recall_group_outcome(
        self,
        bundle: _RequirementBundle,
        topology: Topology,
        group_id: int,
        projection: Tuple[int, ...],
    ) -> Tuple[bool, Optional[_GroupOutcome]]:
        """Recall one group evaluation without computing it.

        The recall half of :meth:`_evaluate_groups`'s per-requirement body,
        for the screening layer: consult the in-memory evaluation cache,
        then the imported-evaluation index / attached store, with exactly
        the counter increments the unscreened path performs.  Returns
        ``(True, outcome)`` on a hit (``outcome is None`` is a recalled
        infeasibility) and ``(False, None)`` when the key has never been
        evaluated — the screen's kernel computes it then.
        """
        key = (id(bundle), id(topology), group_id, projection)
        evals = self._group_evals
        entry = evals.get(key)
        if entry is not None and entry[0] is bundle and entry[1] is topology:
            evals.move_to_end(key)
            self._counters["evaluation_hits"] += 1
            return True, entry[2]
        imported = self._imported_evaluation(bundle, topology, group_id, projection)
        if imported is None:
            return False, None
        self._counters["evaluation_hits"] += 1
        self._counters["imported_evaluations"] += 1
        pairs = imported[0]
        outcome = None if pairs is None else _GroupOutcome(
            doc=pairs,
            plan=bundle.group_plans[group_id],
            size=self.params.slot_table_size,
        )
        evals[key] = (bundle, topology, outcome)
        if len(evals) > self._EVAL_CACHE_SIZE:
            evals.popitem(last=False)
        return True, outcome

    def _admit_screened_outcome(
        self,
        bundle: _RequirementBundle,
        topology: Topology,
        group_id: int,
        projection: Tuple[int, ...],
        pairs: Optional[List[Tuple[Tuple[int, ...], Tuple[int, ...]]]],
    ) -> Optional[_GroupOutcome]:
        """Admit one screening-kernel evaluation to the evaluation cache.

        ``pairs`` is the kernel's serialised ``(path, starts)`` decision
        list (``None`` = infeasible) — the exact shape imported documents
        parse to, so the cached outcome materialises, exports and costs
        bit-identically to a :meth:`_evaluate_groups` computation of the
        same key.  A kernel evaluation *is* a computed evaluation, so it
        counts as an ``evaluation_miss`` (and as a ``screen_miss``, its
        screening-layer attribution).
        """
        self._counters["evaluation_misses"] += 1
        self._counters["screen_misses"] += 1
        outcome = None if pairs is None else _GroupOutcome(
            doc=pairs,
            plan=bundle.group_plans[group_id],
            size=self.params.slot_table_size,
        )
        evals = self._group_evals
        evals[(id(bundle), id(topology), group_id, projection)] = (
            bundle, topology, outcome,
        )
        if len(evals) > self._EVAL_CACHE_SIZE:
            evals.popitem(last=False)
        return outcome

    @staticmethod
    def _walk_outcomes(
        bundle: _RequirementBundle,
        outcomes: Mapping[int, _GroupOutcome],
        configurations: Dict[str, UseCaseConfiguration],
    ) -> Tuple[float, Dict[str, UseCaseConfiguration]]:
        """Walk group outcomes in the exact global allocation order.

        The assembly loop behind :meth:`evaluate_placement`: per-use-case
        cost sums build up in the order the monolithic path records
        allocations (float addition order is part of the bit-identical
        contract) while the allocations are materialised into
        ``configurations``.  Imported outcomes rebuild their live entries
        here — only *accepted* candidates ever reach this walk.
        Returns the total communication cost and the configurations map.
        """
        cost_sums: Dict[str, float] = {}
        for requirement in bundle.requirements:
            for name in requirement.member_names:
                cost_sums[name] = 0
                configurations[name] = UseCaseConfiguration(
                    name, requirement.group_id
                )
        entry_lists = {gid: outcome.entries for gid, outcome in outcomes.items()}
        cursor: Dict[int, int] = {gid: 0 for gid in outcomes}
        for pair_req in bundle.order:
            group_id = pair_req.group_id
            index = cursor[group_id]
            cursor[group_id] = index + 1
            entry = entry_lists[group_id][index]
            terms = entry.cost_terms
            for position, (name, allocation) in enumerate(entry.allocations()):
                configurations[name].add(allocation)
                cost_sums[name] = cost_sums[name] + terms[position]
        return sum(cost_sums.values()), configurations

    def evaluate_placement(
        self,
        use_cases: SpecLike,
        topology: Topology,
        placement: Mapping[str, int],
        groups: GroupSpec = None,
        switching_graph: Optional[SwitchingGraph] = None,
        method_name: str = "unified-fixed-placement",
    ) -> MappingResult:
        """Map a design onto a fixed topology and complete core placement.

        Drop-in equivalent of :meth:`UnifiedMapper.map_with_placement` for
        placements that cover every core of the design (the refinement
        passes always do): each configuration group is evaluated
        independently against its cached requirement sequence, and the
        evaluation is memoised on the placement of the group's endpoint
        cores — unchanged groups and revisited placements are free.
        Placements that leave cores unmapped fall back to the general path.

        Raises :class:`MappingError` when the placement is infeasible.
        """
        spec = self.compile(use_cases)
        resolved = self.resolve_groups(spec, groups, switching_graph)
        if any(name not in placement for name in spec.core_names):
            return self.mapper.map_with_placement(
                spec.use_case_set, topology, placement, groups=resolved,
                method_name=method_name, validate=False,
            )
        bundle = self.requirements_for(spec, resolved)
        outcomes = self._evaluate_groups(bundle, topology, placement)

        # Reassemble the per-use-case configurations in the exact global
        # order the general path records allocations in (float accumulations
        # downstream observe insertion order).
        total_cost, configurations = self._walk_outcomes(bundle, outcomes, {})
        result = MappingResult(
            method=method_name,
            topology=topology,
            params=self.params,
            config=self.config,
            core_mapping=dict(placement),
            groups=resolved,
            configurations=configurations,
            attempted_topologies=(topology.name,),
        )
        result.cached_communication_cost = total_cost
        return result

    # ------------------------------------------------------------------ #
    # cache export hooks (the jobs layer persists results across processes)
    # ------------------------------------------------------------------ #
    def cache_info(self) -> Dict[str, int]:
        """Current cache sizes plus hit/miss counters, for job-level telemetry.

        The jobs layer attaches this to each :class:`~repro.jobs.JobResult`
        (under ``stats["engine"]``) so a sweep farm can see how much work
        the engine short-circuited.  This docstring is the canonical
        reference for the counter fields:

        ``specs`` / ``bundles`` / ``evaluations`` / ``results`` /
        ``worst_specs``
            Current sizes of the five in-memory caches (see the class
            docstring); sizes, not cumulative counts.
        ``result_hits`` / ``result_misses``
            Full mapping runs (:meth:`map`) answered from cache / actually
            performed.  A hit includes results materialised from imported
            seeds or an attached store; a job served entirely without
            recomputation reports ``result_misses == 0``, which is how the
            seeding tests prove nothing was recomputed.
        ``evaluation_hits`` / ``evaluation_misses``
            Fixed-placement group evaluations (the refinement hot path,
            :meth:`placement_cost` / :meth:`evaluate_placement`) answered
            from the in-memory cache, the imported-evaluation index or the
            attached store / actually computed.  A warm refinement whose
            candidates were all previously evaluated reports
            ``evaluation_misses == 0``.
        ``imported_results`` / ``imported_evaluations``
            How many of the hits above were materialised from *imported*
            state (:meth:`import_results` / :meth:`import_evaluations` /
            an attached :class:`~repro.jobs.store.EngineStateStore`)
            rather than computed earlier in this process.
        ``screen_hits`` / ``screen_misses``
            Traffic of the batched candidate screen (:meth:`screener`):
            group projections answered from a screen's run-local memo /
            computed by its vectorised kernel.  Every ``screen_miss`` is
            also counted as an ``evaluation_miss`` (the kernel evaluation
            *is* the computation, admitted to the evaluation cache);
            projections a screen recalls from the caches above count as
            ``evaluation_hits`` like any other recall.  A refinement run
            that used screening at all reports ``screen_hits +
            screen_misses > 0``.

        Counters are cumulative since engine construction and shared with
        :meth:`with_params` siblings, so a frequency search's probes report
        into the owning job's stats.
        """
        info = {
            "specs": len(self._specs),
            "bundles": len(self._bundles),
            "evaluations": len(self._group_evals),
            "results": len(self._results),
            "worst_specs": len(self._worst_specs),
        }
        info.update(self._counters)
        return info

    def attach_store(self, store) -> None:
        """Consult an on-disk engine-state store directly on cache misses.

        ``store`` is duck-typed to the
        :class:`~repro.jobs.store.EngineStateStore` read API
        (``result_key`` / ``get_result`` / ``evaluation_context`` /
        ``load_evaluations``).  Once attached, a :meth:`map` miss looks the
        result up by content key, and the first evaluation miss against a
        (spec, grouping, topology) context loads that context's stored
        entries into the lazy seed index — the engine reads *only the keys
        it misses*, so a large store costs nothing to attach.  Attachment is
        inherited by :meth:`with_params` siblings (each computes keys at its
        own operating point).  The engine never writes to the store; the
        jobs runner ingests :meth:`export_results` /
        :meth:`export_evaluations` after an execution finishes.
        """
        self._store = store

    def import_results(self, entries: Iterable[Dict]) -> int:
        """Seed the full-mapping result cache from exported result entries.

        The import half of :meth:`export_results` (ROADMAP follow-up (h)):
        each entry is re-keyed under ``(spec_hash, groups, method)`` and a
        subsequent :meth:`map` of the same specification returns the rebuilt
        result without re-evaluating anything.  Only entries whose stored
        ``params``/``config`` match this engine's operating point are
        admitted to its seed index — the rest are retained and offered to
        every :meth:`with_params` sibling, so a frequency search's probes
        can hit too.  Indexing is cheap (no deserialisation); an entry is
        rebuilt into a live ``MappingResult`` only when a :meth:`map` call
        actually asks for its key, so a large corpus costs nothing per
        engine until a job needs one of its mappings.  Entries that are
        malformed, already cached or from a different operating point are
        skipped silently; the count of newly indexed entries is returned.

        Seeding only ever short-circuits deterministic recomputation: the
        round trip through :func:`mapping_result_from_dict` is canonical, so
        a seeded engine is bit-identical to a cold one.
        """
        fresh = [entry for entry in entries if isinstance(entry, dict)]
        self._seed_entries.extend(fresh)
        return self._index_seeds(fresh)

    def _index_seeds(self, entries: Iterable[Dict]) -> int:
        """Admit matching entries to the lazy seed index; returns how many."""
        params_document = self.params.to_dict()
        config_document = self.config.to_dict()
        indexed = 0
        for entry in entries:
            try:
                document = entry["result"]
                key = (
                    entry["spec_hash"],
                    tuple(frozenset(group) for group in entry["groups"]),
                    entry["method"],
                )
            except (KeyError, TypeError):
                continue
            if not isinstance(document, dict):
                continue
            if (
                document.get("params") != params_document
                or document.get("config") != config_document
            ):
                continue
            if key in self._results or key in self._seed_index:
                continue
            self._seed_index[key] = document
            indexed += 1
        return indexed

    def _materialise_seed(self, key) -> Optional[MappingResult]:
        """Rebuild one indexed seed entry on demand (a :meth:`map` miss)."""
        document = self._seed_index.pop(key, None)
        if document is None:
            return None
        return self._admit_imported_result(key, document)

    def _materialise_store_result(self, key) -> Optional[MappingResult]:
        """Look one :meth:`map` miss up in the attached engine-state store."""
        if self._store is None:
            return None
        spec_hash, resolved, method_name = key
        params_document, config_document = self._own_documents()
        store_key = self._store.result_key(
            spec_hash,
            [sorted(group) for group in resolved],
            method_name,
            params_document,
            config_document,
        )
        entry = self._store.get_result(store_key)
        if not isinstance(entry, dict) or not isinstance(entry.get("result"), dict):
            return None
        return self._admit_imported_result(key, entry["result"])

    def _admit_imported_result(self, key, document: Dict) -> Optional[MappingResult]:
        """Rebuild an imported result document into the result cache."""
        from repro.io.serialization import mapping_result_from_dict

        try:
            result = mapping_result_from_dict(document)
        except ReproError:
            return None  # corrupt entry: fall through to recomputation
        self._results[key] = result
        self._imported_keys.add(key)
        if len(self._results) > self._RESULT_CACHE_SIZE:
            self._results.popitem(last=False)
        self._counters["imported_results"] += 1
        return result

    def _own_documents(self) -> Tuple[Dict, Dict]:
        """This engine's params/config documents (store key components)."""
        if self._own_docs is None:
            self._own_docs = (self.params.to_dict(), self.config.to_dict())
        return self._own_docs

    def _topology_doc(self, topology: Topology) -> Tuple[Dict, str]:
        """Canonical document + fingerprint of a topology (identity-memoised)."""
        entry = self._topology_docs.get(id(topology))
        if entry is not None and entry[0] is topology:
            self._topology_docs.move_to_end(id(topology))
            return entry[1], entry[2]
        from repro.io.serialization import document_fingerprint, topology_to_dict

        document = topology_to_dict(topology)
        fingerprint = document_fingerprint(document)
        self._topology_docs[id(topology)] = (topology, document, fingerprint)
        if len(self._topology_docs) > self._SPEC_CACHE_SIZE:
            self._topology_docs.popitem(last=False)
        return document, fingerprint

    # ------------------------------------------------------------------ #
    # fixed-placement evaluation export/import (ROADMAP follow-up (k))
    # ------------------------------------------------------------------ #
    def import_evaluations(self, documents: Iterable[Dict]) -> int:
        """Seed the fixed-placement evaluation cache from exported entries.

        The import half of :meth:`export_evaluations`, with the same
        lazy-index, never-re-export discipline as :meth:`import_results`:
        entries whose context matches this engine's operating point are
        admitted to a key-addressed index (no deserialisation up front) and
        rebuilt into live :class:`~repro.core.mapping.PairPlacement` lists
        only when an evaluation miss actually asks for their key; the raw
        documents are retained and offered to every :meth:`with_params`
        sibling.  Materialised entries are excluded from
        :meth:`export_evaluations`, so a seeded engine never re-exports the
        corpus it was fed.  Malformed documents are skipped silently; the
        count of newly indexed entries is returned.

        Seeding only short-circuits deterministic recomputation: entries
        round-trip bit-exactly, so a warm refinement accepts the same moves
        at the same costs as a cold one.
        """
        fresh = [entry for entry in documents if isinstance(entry, dict)]
        self._seed_eval_docs.extend(fresh)
        return self._index_eval_seeds(fresh)

    def _index_eval_seeds(self, documents: Iterable[Dict]) -> int:
        """Admit matching evaluation entries to the lazy index; count them."""
        from repro.io.serialization import document_fingerprint

        params_document, config_document = self._own_documents()
        indexed = 0
        for document in documents:
            try:
                if (
                    document["params"] != params_document
                    or document["config"] != config_document
                ):
                    continue
                spec_hash = document["spec_hash"]
                groups_key = tuple(
                    tuple(sorted(group)) for group in document["groups"]
                )
                topology_fp = document_fingerprint(document["topology"])
                entries = document["entries"]
            except (KeyError, TypeError):
                continue
            if not isinstance(entries, list):
                continue
            for entry in entries:
                try:
                    key = (
                        spec_hash,
                        groups_key,
                        topology_fp,
                        int(entry["group_id"]),
                        tuple(int(v) for v in entry["projection"]),
                    )
                except (KeyError, TypeError, ValueError):
                    continue
                if key in self._eval_seed_index or key in self._imported_eval_keys:
                    continue
                self._eval_seed_index[key] = entry.get("outcome")
                indexed += 1
        return indexed

    def _imported_evaluation(
        self,
        bundle: _RequirementBundle,
        topology: Topology,
        group_id: int,
        projection: Tuple[int, ...],
    ) -> Optional[Tuple[Optional[List]]]:
        """Serve one evaluation miss from imports or the attached store.

        Returns ``None`` when nothing was imported for the key, else a
        1-tuple wrapping the *parsed* (path, starts) pair list (which is
        itself ``None`` for a cached infeasibility — the wrapper keeps the
        two distinguishable).  Parsing/validation happens here so a corrupt
        entry degrades to recomputation instead of failing mid-assembly;
        live ``PairPlacement`` objects are built lazily by
        :class:`_GroupOutcome` — only accepted candidates pay for them.
        """
        if not self._eval_seed_index and self._store is None:
            return None
        topology_document, topology_fp = self._topology_doc(topology)
        content_key = (
            bundle.spec_hash, bundle.groups_key, topology_fp, group_id, projection,
        )
        outcome_document = self._eval_seed_index.pop(content_key, _MISSING)
        if outcome_document is _MISSING and self._store is not None:
            # First miss against this (spec, grouping, topology) context:
            # load the whole context shard once; later candidates of the
            # same refinement run are answered from the index in memory.
            params_document, config_document = self._own_documents()
            context = self._store.evaluation_context(
                bundle.spec_hash, bundle.groups_key, topology_document,
                params_document, config_document,
            )
            if context not in self._store_contexts:
                self._store_contexts.add(context)
                for (gid, proj), entry in self._store.load_evaluations(
                    context
                ).items():
                    key = (
                        bundle.spec_hash, bundle.groups_key, topology_fp, gid, proj,
                    )
                    if (
                        key not in self._eval_seed_index
                        and key not in self._imported_eval_keys
                    ):
                        self._eval_seed_index[key] = entry.get("outcome")
                outcome_document = self._eval_seed_index.pop(content_key, _MISSING)
        if outcome_document is _MISSING:
            return None
        pairs = None
        if outcome_document is not None:
            pairs = _parse_outcome_doc(
                outcome_document, len(bundle.group_plans[group_id])
            )
            if pairs is None:
                return None  # corrupt entry: fall through to recomputation
        self._imported_eval_keys.add(content_key)
        return (pairs,)

    def export_evaluations(self) -> List[Dict]:
        """Serialise the fixed-placement evaluations *this engine computed*.

        The evaluation twin of :meth:`export_results`: entries materialised
        from imports (or the attached store) are excluded, so the corpus
        stays proportional to distinct evaluations.  Entries are grouped
        into one document per (spec, grouping, topology) context — the unit
        :class:`~repro.jobs.store.EngineStateStore` shards by — each
        carrying the serialisable key components (``spec_hash``,
        ``groups``, the canonical ``topology`` document, ``params``,
        ``config``) plus the per-key ``entries``
        (``group_id`` / ``projection`` / ``outcome``, where a ``null``
        outcome records a cached infeasibility).
        """
        params_document, config_document = self._own_documents()
        grouped: "OrderedDict[Tuple, Dict]" = OrderedDict()
        for (_, _, group_id, projection), (bundle, topology, outcome) in (
            self._group_evals.items()
        ):
            _, topology_fp = self._topology_doc(topology)
            content_key = (
                bundle.spec_hash, bundle.groups_key, topology_fp, group_id, projection,
            )
            if content_key in self._imported_eval_keys:
                continue
            context = (bundle.spec_hash, bundle.groups_key, topology_fp)
            document = grouped.get(context)
            if document is None:
                document = {
                    "spec_hash": bundle.spec_hash,
                    "groups": [list(group) for group in bundle.groups_key],
                    "topology": self._topology_doc(topology)[0],
                    "params": params_document,
                    "config": config_document,
                    "entries": [],
                }
                grouped[context] = document
            document["entries"].append(
                {
                    "group_id": group_id,
                    "projection": list(projection),
                    "outcome": _outcome_to_doc(
                        None if outcome is None else outcome.entries
                    ),
                }
            )
        return list(grouped.values())

    def export_results(self) -> List[Dict]:
        """Serialise the full-mapping results *this engine computed*.

        Results that were materialised from imported seed entries are
        excluded — the store they came from already holds them, and
        re-exporting would snowball every downstream envelope with the
        whole prior corpus.

        Each entry carries the cache key components (``spec_hash``,
        ``groups``, ``method``) plus the :func:`mapping_result_to_dict`
        payload, so an external store — a sweep farm's artifact bucket, or
        the persistent :class:`~repro.jobs.cache.JobCache` — can dump what
        this process computed and rebuild the results elsewhere.
        :meth:`import_results` is the matching import half.  The jobs layer
        ingests these entries into the cache's engine-state store, which
        store-attached engines read on a :meth:`map` miss, so a job that
        *contains* an already-computed mapping skips recomputation.
        """
        from repro.io.serialization import mapping_result_to_dict

        exported: List[Dict] = []
        for (spec_hash, resolved, method_name), result in self._results.items():
            if (spec_hash, resolved, method_name) in self._imported_keys:
                continue
            exported.append(
                {
                    "spec_hash": spec_hash,
                    "groups": [sorted(group) for group in resolved],
                    "method": method_name,
                    "result": mapping_result_to_dict(result),
                }
            )
        return exported

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MappingEngine(specs={len(self._specs)}, bundles={len(self._bundles)}, "
            f"evaluations={len(self._group_evals)}, results={len(self._results)})"
        )
