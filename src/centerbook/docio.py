"""Reading and shape-checking of JSON scenario, book, and template documents."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from .errors import DocumentError
from .rationals import json_integer


def read_document(source: object) -> tuple[dict, str]:
    """Return (document, location-prefix) from a mapping, a path, or a path string."""
    if isinstance(source, Mapping):
        return dict(source), "<document>"
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise DocumentError(f"{path}: {exc.strerror or exc}") from exc
        try:
            doc = json.loads(text, parse_int=json_integer)
        except json.JSONDecodeError as exc:
            raise DocumentError(
                f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(doc, dict):
            raise DocumentError(f"{path}: top level must be a JSON object")
        return doc, str(path)
    raise DocumentError(f"cannot read a document from {type(source).__name__}")


def require_keys(
    doc: Mapping, where: str, required: set[str], optional: set[str] = frozenset()
) -> None:
    missing = required - doc.keys()
    if missing:
        raise DocumentError(f"{where}: missing key(s) {sorted(missing)}")
    unknown = doc.keys() - required - optional
    if unknown:
        raise DocumentError(f"{where}: unknown key(s) {sorted(unknown)}")


def string_field(doc: Mapping, key: str, where: str) -> str:
    value = doc.get(key)
    if not isinstance(value, str) or not value:
        raise DocumentError(f"{where}.{key}: expected a non-empty string")
    return value


def list_field(doc: Mapping, key: str, where: str) -> list:
    value = doc.get(key)
    if not isinstance(value, list):
        raise DocumentError(f"{where}.{key}: expected a list")
    return value
