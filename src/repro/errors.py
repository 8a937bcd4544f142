"""Exception hierarchy for the rgpdOS reproduction.

Every error raised by the library derives from :class:`RgpdOSError` so
callers can catch library failures with a single ``except`` clause.
The hierarchy mirrors the paper's architecture: storage-level errors,
kernel-level errors, and GDPR-enforcement errors are distinct branches
because they are raised by distinct components (DBFS, the purpose
kernels, and PS/DED respectively).
"""

from __future__ import annotations


class RgpdOSError(Exception):
    """Base class of every exception raised by this library."""


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------


class StorageError(RgpdOSError):
    """Base class for block-device, inode, journal and filesystem errors."""


class BlockDeviceError(StorageError):
    """Raised on invalid block-device access (out of range, bad size)."""


class TransientIOError(BlockDeviceError):
    """A transient device fault (media retry, bus glitch).

    The operation did not take effect; retrying it is safe and is
    expected to succeed.  The NVMe driver path retries these with
    bounded exponential backoff.
    """


class PowerLossError(BlockDeviceError):
    """The simulated device lost power mid-operation.

    Not retryable: the device stays dead until ``power_on()``.  Raised
    by :class:`repro.storage.faults.FaultyBlockDevice` when a fault
    plan cuts power, and never caught by the driver retry loop.
    """


class OutOfSpaceError(StorageError):
    """Raised when a device or filesystem has no free blocks/inodes left."""


class InodeError(StorageError):
    """Raised on invalid inode operations (bad number, freed inode...)."""


class JournalError(StorageError):
    """Raised on journal corruption or invalid journal operations."""


class FileSystemError(StorageError):
    """Raised by the file-based filesystem (extfs) on invalid operations."""


class FileNotFoundInFSError(FileSystemError):
    """Raised when a path does not exist in the filesystem."""


class DBFSError(StorageError):
    """Raised by the database-oriented filesystem."""


class UnknownTypeError(DBFSError):
    """Raised when a PD type (table) is not declared in DBFS."""


class UnknownRecordError(DBFSError):
    """Raised when a PD identifier does not resolve to a stored record."""


class SchemaViolationError(DBFSError):
    """Raised when a record does not conform to its declared PD type."""


class ShardUnavailableError(DBFSError):
    """Raised when an operation routes to a shard that failed recovery.

    A sharded remount isolates per-shard corruption: the healthy shards
    keep serving, and only operations that *must* touch the degraded
    shard raise this error.
    """


# ---------------------------------------------------------------------------
# Kernel layer
# ---------------------------------------------------------------------------


class KernelError(RgpdOSError):
    """Base class for purpose-kernel machine errors."""


class SyscallDenied(KernelError):
    """Raised when a seccomp filter or LSM hook denies a syscall.

    This is the simulated equivalent of ``seccomp`` returning
    ``SECCOMP_RET_KILL``/``ERRNO`` or an LSM hook returning ``-EPERM``.
    """

    def __init__(self, syscall: str, reason: str = "") -> None:
        self.syscall = syscall
        self.reason = reason
        message = f"syscall {syscall!r} denied"
        if reason:
            message = f"{message}: {reason}"
        super().__init__(message)


class DomainViolationError(KernelError):
    """Raised when a process touches memory outside its domain."""


class ResourcePartitionError(KernelError):
    """Raised on invalid CPU/memory partition requests between kernels."""


class IPCError(KernelError):
    """Raised on invalid cross-kernel channel operations."""


class ProcessError(KernelError):
    """Raised on invalid process lifecycle operations."""


# ---------------------------------------------------------------------------
# GDPR enforcement layer (PS / DED / membrane)
# ---------------------------------------------------------------------------


class GDPRError(RgpdOSError):
    """Base class for GDPR-enforcement errors."""


class ConsentDenied(GDPRError):
    """Raised when a purpose is not consented for a piece of PD.

    Carries the purpose and the subject so audit trails can record the
    denial precisely.
    """

    def __init__(self, purpose: str, subject: str = "", detail: str = "") -> None:
        self.purpose = purpose
        self.subject = subject
        self.detail = detail
        message = f"purpose {purpose!r} has no consent"
        if subject:
            message = f"{message} from subject {subject!r}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class MembraneError(GDPRError):
    """Raised on malformed membranes or membrane-consistency violations."""


class MissingMembraneError(MembraneError):
    """Raised when PD reaches DBFS without a membrane (invariant 3)."""


class ExpiredPDError(GDPRError):
    """Raised when accessing PD whose time-to-live has elapsed."""


class ViewError(GDPRError):
    """Raised on undefined views or illegal view projections."""


class RegistrationError(GDPRError):
    """Raised by ``ps_register`` when a processing cannot be registered."""


class MissingPurposeError(RegistrationError):
    """Raised when a function is registered without a declared purpose."""


class PurposeMismatchAlert(RegistrationError):
    """Raised when a purpose does not match its implementation.

    The paper specifies that this situation "raises an alert that
    requires an explicit sysadmin approval"; callers can catch this
    alert and re-register with ``sysadmin_approved=True``.
    """


class InvocationError(GDPRError):
    """Raised by ``ps_invoke`` on unknown or ill-formed invocations."""


class PDLeakError(GDPRError):
    """Raised when raw PD would escape the Data Execution Domain."""


class ErasureError(GDPRError):
    """Raised when the right to be forgotten cannot be enforced."""


# ---------------------------------------------------------------------------
# DSL layer
# ---------------------------------------------------------------------------


class DSLError(RgpdOSError):
    """Base class for type-declaration-language errors."""


class LexerError(DSLError):
    """Raised on unrecognised characters in a declaration source."""

    def __init__(self, message: str, line: int, column: int) -> None:
        self.line = line
        self.column = column
        super().__init__(f"{message} at line {line}, column {column}")


class ParseError(DSLError):
    """Raised on grammar violations in a declaration source."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} at line {line}, column {column}"
        super().__init__(message)


class SemanticError(DSLError):
    """Raised when a parsed declaration is internally inconsistent."""


# ---------------------------------------------------------------------------
# Crypto layer
# ---------------------------------------------------------------------------


class CryptoError(RgpdOSError):
    """Base class for cryptographic failures (bad key, bad ciphertext)."""


# ---------------------------------------------------------------------------
# Replicated cluster
# ---------------------------------------------------------------------------


class ClusterError(RgpdOSError):
    """Base class for replicated-cluster failures."""


class ReplicationError(ClusterError):
    """Journal shipping failed (node dead, stream gap, apply error)."""


class LinkPartitionedError(ReplicationError):
    """The simulated network link is partitioned; the batch did not ship."""


class PlacementViolationError(ClusterError):
    """A replica placement would break Chapter V transfer rules (Art. 44)."""
