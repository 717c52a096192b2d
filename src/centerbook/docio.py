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
        doc = dict(source)
        _reject_surrogates(doc, "<document>")
        return doc, "<document>"
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise DocumentError(f"{path}: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise DocumentError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
        try:
            doc = json.loads(text, parse_int=json_integer)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except RecursionError as exc:
            raise DocumentError(f"{path}: JSON nested too deeply") from exc
        if not isinstance(doc, dict):
            raise DocumentError(f"{path}: top level must be a JSON object")
        if "\\ud" in text or "\\uD" in text:  # only a \uD800-\uDFFF escape makes a surrogate
            _reject_surrogates(doc, str(path))
        return doc, str(path)
    raise DocumentError(f"cannot read a document from {type(source).__name__}")


def _reject_surrogates(doc: dict, where: str) -> None:
    """Raise on a key or string holding a lone surrogate, which is not text."""
    stack: list[tuple[object, str]] = [(doc, where)]
    while stack:
        value, at = stack.pop()
        if isinstance(value, dict):
            stack += [(x, f"{at}.{key}") for key, item in value.items() for x in (key, item)]
        elif isinstance(value, list):
            stack += [(item, f"{at}[{index}]") for index, item in enumerate(value)]
        elif isinstance(value, str) and not value.isascii():
            if any("\ud800" <= char <= "\udfff" for char in value):
                at = at.encode("utf-8", "backslashreplace").decode()
                raise DocumentError(f"{at}: holds a lone surrogate, which is not text")


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


def string_list(value: object, where: str, what: str) -> list[str]:
    """The value itself when it is a list of strings; else a DocumentError at ``where``."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise DocumentError(f"{where}: expected a list of {what}")
    return value
