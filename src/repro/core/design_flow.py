"""The end-to-end multi-use-case NoC design flow (Figure 3 of the paper).

The flow stitches the individual phases together:

* **Phase 1** — parallel-mode (compound) use-case generation from the
  designer's ``PUC`` input (:mod:`repro.core.compound`).
* **Phase 2** — use-case grouping for smooth switching from the ``SUC``
  input plus the automatic compound-member constraints
  (:mod:`repro.core.switching`, Algorithm 1).
* **Phase 3** — unified mapping, path selection and slot-table reservation
  (:mod:`repro.core.mapping`, Algorithm 2), optionally followed by a
  refinement pass (:mod:`repro.optimize`).
* **Phase 4** — analytical performance verification of the produced
  configuration (:func:`repro.core.validate.validate_mapping`) and, in
  place of the paper's SystemC/VHDL generation, a structural export
  (:mod:`repro.io.export`).

Most users only need :meth:`DesignFlow.run`; the individual phases remain
available for scripting finer-grained experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.core.compound import CompoundModeSpec, generate_compound_modes
from repro.core.engine import MappingEngine
from repro.core.result import MappingResult
from repro.core.switching import SwitchingGraph
from repro.core.usecase import UseCase, UseCaseSet
from repro.core.validate import ValidationReport, validate_mapping
from repro.params import MapperConfig, NoCParameters

__all__ = ["DesignFlow", "DesignFlowResult"]


@dataclass
class DesignFlowResult:
    """Everything the design flow produced for one design.

    Attributes
    ----------
    use_cases:
        The expanded use-case set (original use-cases plus generated
        compound modes).
    generated_compound_modes:
        Only the use-cases synthesised by phase 1.
    switching_graph:
        The phase-2 switching graph.
    groups:
        Its connected components — the sets of use-cases sharing one NoC
        configuration.
    mapping:
        The phase-3 mapping result.
    verification:
        The phase-4 validation report (``None`` when
        verification was disabled).
    """

    use_cases: UseCaseSet
    generated_compound_modes: Tuple[UseCase, ...]
    switching_graph: SwitchingGraph
    groups: Tuple[FrozenSet[str], ...]
    mapping: MappingResult
    verification: Optional[ValidationReport] = None

    @property
    def switch_count(self) -> int:
        """Number of switches in the final NoC."""
        return self.mapping.switch_count

    def summary(self) -> dict:
        """Plain-dict digest for reports and logs."""
        digest = dict(self.mapping.summary())
        digest.update(
            {
                "compound_modes": [uc.name for uc in self.generated_compound_modes],
                "groups": [sorted(group) for group in self.groups],
                "verified": None if self.verification is None else self.verification.ok,
            }
        )
        return digest


class DesignFlow:
    """Orchestrates phases 1-4 of the multi-use-case NoC design methodology.

    The flow owns a :class:`~repro.core.engine.MappingEngine` session (the
    public mapping API) and delegates phase 3 to it; passing a shared engine
    lets several flows — or a flow plus the analysis sweeps — reuse compiled
    specifications and mapping results.
    """

    def __init__(
        self,
        params: NoCParameters | None = None,
        config: MapperConfig | None = None,
        verify: bool = True,
        engine: MappingEngine | None = None,
    ) -> None:
        self.engine = engine or MappingEngine(params=params, config=config)
        self.params = self.engine.params
        self.config = self.engine.config
        self.verify = verify

    def run(
        self,
        use_cases: UseCaseSet,
        parallel_modes: Sequence[CompoundModeSpec] = (),
        smooth_switching: Sequence[Tuple[str, str]] = (),
    ) -> DesignFlowResult:
        """Run the full methodology on one design.

        Parameters
        ----------
        use_cases:
            The designer's use-cases (``U1 ... Un``).
        parallel_modes:
            The ``PUC`` input: which use-cases may run in parallel.
        smooth_switching:
            The ``SUC`` input: pairs of use-case names that must switch
            smoothly (and therefore share a configuration).
        """
        # Phase 1: generate compound modes for the declared parallel sets.
        expanded, generated = generate_compound_modes(use_cases, parallel_modes)

        # Phase 2: build the switching graph and group the use-cases.
        switching_graph = SwitchingGraph.from_use_case_set(
            expanded,
            smooth_pairs=smooth_switching,
            include_compound_members=True,
        )
        groups = tuple(switching_graph.groups())

        # Phase 3: unified mapping and NoC configuration (engine session).
        mapping = self.engine.map(expanded, switching_graph=switching_graph)

        # Phase 4: analytical verification of the GT connections.
        report = validate_mapping(mapping, expanded) if self.verify else None

        return DesignFlowResult(
            use_cases=expanded,
            generated_compound_modes=tuple(generated),
            switching_graph=switching_graph,
            groups=groups,
            mapping=mapping,
            verification=report,
        )
