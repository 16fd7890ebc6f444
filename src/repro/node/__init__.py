"""Node runtime: storage, load monitoring, membership, message handling."""

from .loadmon import LoadMonitor, ServedLoad, WindowedRate
from .membership import StatusWord
from .storage import FileOrigin, FileStore, StoredFile

__all__ = [
    "FileOrigin",
    "FileStore",
    "LoadMonitor",
    "ServedLoad",
    "StatusWord",
    "StoredFile",
    "WindowedRate",
]
