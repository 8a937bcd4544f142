"""rgpdOS reproduction — GDPR enforcement by the operating system.

A faithful, simulation-based reproduction of *"rgpdOS: GDPR
Enforcement By The Operating System"* (Tchana et al., DSN 2023):
a purpose-kernel machine model, a database-oriented filesystem (DBFS)
storing *active data* (PD wrapped in consent-carrying membranes), a
Processing Store as the single entry point, per-invocation Data
Execution Domains, built-in update/delete/copy/acquisition functions,
and the subject-rights layer (right of access, right to be forgotten
with authority escrow, and the rest of GDPR Chapter III).

Quick start::

    from repro import RgpdOS, processing

    os_ = RgpdOS(operator_name="acme")
    os_.install(TYPE_AND_PURPOSE_DECLARATIONS)
    ref = os_.collect("user", {...}, subject_id="alice", method="web_form")

    @processing(purpose="stats")
    def average_age(user):
        return 2026 - user.year_of_birthdate

    os_.register(average_age)
    result = os_.invoke("average_age", target="user")
"""

from . import errors
from .core.active_data import AccessCredential, ActiveData, PDRef, PDView
from .core.builtins import BuiltinFunctions, EraseReport
from .core.clock import Clock, format_duration, parse_duration
from .core.crypto import Authority, OperatorKey, generate_keypair
from .core.datatypes import FieldDef, PDType
from .core.ded import (
    DataExecutionDomain,
    DEDCostModel,
    InvocationResult,
    StageTrace,
    produce,
)
from .core.membrane import ConsentDecision, Membrane, membrane_for_type
from .core.processing_log import LogEntry, PDAccess, ProcessingLog
from .core.processing_store import Processing, ProcessingStore
from .core.purposes import (
    MatchReport,
    Purpose,
    PurposeMatcher,
    extract_purpose_name,
    processing,
)
from .core.breach import BreachIndicator, BreachMonitor, BreachReport
from .core.rights import AccessReport, ErasureOutcome, SubjectRights
from .core.semantic import SemanticMatcher, SemanticReport
from .core.transfer import TransferOutcome, export_package, import_package
from .core.system import RgpdOS
from .core.views import SCOPE_ALL, SCOPE_NONE, View
from .dsl.loader import load_source
from .kernel.pim import DEDPlacer, PlacementDecision
from .obs import (
    LatencyHistogram,
    MetricsRegistry,
    Telemetry,
    Tracer,
    parse_prometheus,
)
from .kernel.tee import Enclave, TEEPlatform, measure_code
from .dsl.parser import parse

__version__ = "1.0.0"

__all__ = [
    "AccessCredential",
    "AccessReport",
    "BreachIndicator",
    "BreachMonitor",
    "BreachReport",
    "DEDPlacer",
    "Enclave",
    "PlacementDecision",
    "SemanticMatcher",
    "SemanticReport",
    "TEEPlatform",
    "TransferOutcome",
    "export_package",
    "import_package",
    "measure_code",
    "ActiveData",
    "Authority",
    "BuiltinFunctions",
    "Clock",
    "ConsentDecision",
    "DEDCostModel",
    "DataExecutionDomain",
    "EraseReport",
    "ErasureOutcome",
    "FieldDef",
    "InvocationResult",
    "LatencyHistogram",
    "LogEntry",
    "MatchReport",
    "Membrane",
    "MetricsRegistry",
    "OperatorKey",
    "PDAccess",
    "PDRef",
    "PDType",
    "PDView",
    "Processing",
    "ProcessingLog",
    "ProcessingStore",
    "Purpose",
    "PurposeMatcher",
    "RgpdOS",
    "SCOPE_ALL",
    "SCOPE_NONE",
    "StageTrace",
    "SubjectRights",
    "Telemetry",
    "Tracer",
    "View",
    "errors",
    "extract_purpose_name",
    "format_duration",
    "generate_keypair",
    "load_source",
    "membrane_for_type",
    "parse",
    "parse_duration",
    "parse_prometheus",
    "processing",
    "produce",
]
