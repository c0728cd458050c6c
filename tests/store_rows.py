"""Direct access to a result store's database rows, for corruption tests.

Each helper opens its own connection to the store's database, as
another process would, and addresses a row by namespace and key.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
from contextlib import closing
from typing import Any

from repro import ResultStore


def _connect(store: ResultStore) -> "closing[sqlite3.Connection]":
    return closing(sqlite3.connect(store.database))


def row(store: ResultStore, key: str, namespace: str = "results") -> dict[str, Any] | None:
    """The row of ``key`` as a column dict, or ``None``."""
    with _connect(store) as db:
        db.row_factory = sqlite3.Row
        found = db.execute(
            f"SELECT * FROM {store._tables[namespace]} WHERE key = ?", (key,)
        ).fetchone()
    return dict(found) if found is not None else None


def body(store: ResultStore, key: str, namespace: str = "results") -> bytes:
    """The stored body bytes of ``key`` (the row must exist)."""
    found = row(store, key, namespace)
    assert found is not None, f"no {namespace} row for {key}"
    return found["body"]


def update(store: ResultStore, key: str, namespace: str = "results", **columns: Any) -> None:
    """Overwrite columns of one existing row (``body``, ``digest``, ...)."""
    assignments = ", ".join(f"{name} = ?" for name in columns)
    with _connect(store) as db, db:
        cursor = db.execute(
            f"UPDATE {store._tables[namespace]} SET {assignments} WHERE key = ?",
            (*columns.values(), key),
        )
    assert cursor.rowcount == 1, f"no {namespace} row for {key}"


def delete(store: ResultStore, key: str, namespace: str = "results") -> None:
    """Remove one row, as eviction by another process would."""
    with _connect(store) as db, db:
        db.execute(f"DELETE FROM {store._tables[namespace]} WHERE key = ?", (key,))


def plant(
    store: ResultStore, key: str, document: dict[str, Any], namespace: str = "results"
) -> None:
    """Insert ``document`` under ``key`` with a valid digest.

    The store's envelope checks (schema tag, id field, payload shape)
    then decide alone whether the row reads back.
    """
    plant_body(store, key, json.dumps(document, separators=(",", ":")).encode(), namespace)


def plant_body(
    store: ResultStore, key: str, data: bytes, namespace: str = "results"
) -> None:
    """Insert the body bytes ``data`` under ``key`` with a valid digest."""
    with store._database(create=True):
        pass  # the database and its tables exist from here on
    with _connect(store) as db, db:
        db.execute(
            f"INSERT OR REPLACE INTO {store._tables[namespace]} "
            "(key, digest, size, written_at, body) VALUES (?, ?, ?, ?, ?)",
            (key, hashlib.sha256(data).hexdigest(), len(data), time.time(), data),
        )


def documents(store: ResultStore) -> dict[tuple[str, str], tuple[str, bytes]]:
    """Every row of every namespace: ``(namespace, key) -> (digest, body)``."""
    if not store.database.is_file():
        return {}
    with _connect(store) as db:
        return {
            (namespace, key): (digest, data)
            for namespace, table in store._tables.items()
            for key, digest, data in db.execute(
                f"SELECT key, digest, body FROM {table} ORDER BY key"
            )
        }


def execute(store: ResultStore, statement: str, *parameters: Any) -> list[tuple[Any, ...]]:
    """Run one statement on its own connection, committed; its rows."""
    with _connect(store) as db, db:
        return db.execute(statement, parameters).fetchall()
