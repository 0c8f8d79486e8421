"""SAP HANA-like column-store substrate: dictionaries, columns, queries."""

from repro.columnstore.column import ENCODE_STRATEGIES, EncodedColumn
from repro.columnstore.delta import DeltaStore, merge_delta_into_main
from repro.columnstore.dictionary import (
    DeltaDictionary,
    MainDictionary,
    delta_locate_stream,
)
from repro.columnstore.scan import scan_matching_rows, scan_stream
from repro.columnstore.table import ColumnTable

__all__ = [
    "ENCODE_STRATEGIES",
    "EncodedColumn",
    "DeltaStore",
    "merge_delta_into_main",
    "DeltaDictionary",
    "MainDictionary",
    "delta_locate_stream",
    "scan_matching_rows",
    "scan_stream",
    "ColumnTable",
]
