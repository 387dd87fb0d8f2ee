"""MIME type registry.

The paper defines *targets* as resources whose MIME type is in a
user-defined list; its Appendix A.2 gives the exact list of 38 types used
in the experiments, reproduced verbatim below.  Multimedia MIME types and
URL extensions are blocklisted during crawling (Appendix B.3) to avoid
downloading large irrelevant content.
"""

from __future__ import annotations

HTML_MIME = "text/html"

#: The 38 target MIME types from Appendix A.2 of the paper.
TARGET_MIME_TYPES: frozenset[str] = frozenset(
    {
        "application/csv",
        "application/json",
        "application/msword",
        "application/octet-stream",
        "application/pdf",
        "application/rdf+xml",
        "application/rss+xml",
        "application/vnd.ms-excel",
        "application/vnd.ms-excel.sheet.macroenabled.12",
        "application/vnd.oasis.opendocument.presentation",
        "application/vnd.oasis.opendocument.spreadsheet",
        "application/vnd.oasis.opendocument.text",
        "application/vnd.openxmlformats-officedocument.presentationml.presentation",
        "application/vnd.openxmlformats-officedocument.spreadsheetml.sheet",
        "application/vnd.openxmlformats-officedocument.wordprocessingml.document",
        "application/vnd.openxmlformats-officedocument.wordprocessingml.template",
        "application/vnd.rar",
        "application/x-7z-compressed",
        "application/x-csv",
        "application/x-gtar",
        "application/x-gzip",
        "application/xml",
        "application/x-pdf",
        "application/x-rar-compressed",
        "application/x-tar",
        "application/x-yaml",
        "application/x-zip-compressed",
        "application/yaml",
        "application/zip",
        "application/zip-compressed",
        "text/comma-separated-values",
        "text/csv",
        "text/json",
        "text/plain",
        "text/x-comma-separated-values",
        "text/x-csv",
        "text/x-yaml",
        "text/yaml",
    }
)

#: MIME prefixes blocklisted during the crawl (multimedia; Sec. 3.4 / B.3).
BLOCKLISTED_MIME_PREFIXES: tuple[str, ...] = ("image/", "audio/", "video/")

#: URL extensions blocklisted before classification (subset of Appendix B.3
#: covering the formats our generator can emit; semantics are identical).
BLOCKLISTED_EXTENSIONS: frozenset[str] = frozenset(
    {
        ".png", ".jpg", ".jpeg", ".gif", ".svg", ".webp", ".bmp", ".ico",
        ".tif", ".tiff", ".avif", ".heic",
        ".mp3", ".wav", ".ogg", ".flac", ".aac", ".m4a", ".opus", ".wma",
        ".mp4", ".avi", ".mov", ".mkv", ".webm", ".mpeg", ".mpg", ".wmv",
        ".m4v", ".3gp", ".flv",
    }
)

#: Target MIME types the generator draws from, with rough real-web weights.
GENERATOR_TARGET_MIMES: tuple[tuple[str, float], ...] = (
    ("application/pdf", 0.38),
    ("text/csv", 0.16),
    ("application/vnd.ms-excel", 0.10),
    ("application/vnd.openxmlformats-officedocument.spreadsheetml.sheet", 0.10),
    ("application/vnd.oasis.opendocument.spreadsheet", 0.05),
    ("application/zip", 0.07),
    ("application/json", 0.05),
    ("application/xml", 0.03),
    ("text/comma-separated-values", 0.03),
    ("application/msword", 0.02),
    ("application/x-gzip", 0.01),
)


def is_target_mime(mime: str | None, targets: frozenset[str] | None = None) -> bool:
    """Return True if ``mime`` identifies a crawl target (Sec. 2.2).

    ``targets`` overrides the default MIME list — the paper's target
    definition is deliberately *user-defined* (e.g. restrict a crawl to
    CSV files only).
    """
    if mime is None:
        return False
    cleaned = mime.split(";")[0].strip().lower()
    return cleaned in (targets if targets is not None else TARGET_MIME_TYPES)


def is_blocklisted_mime(mime: str | None) -> bool:
    """Return True if ``mime`` is multimedia and must not be downloaded."""
    if mime is None:
        return False
    cleaned = mime.split(";")[0].strip().lower()
    return cleaned.startswith(BLOCKLISTED_MIME_PREFIXES)


def is_blocklisted_extension(url: str) -> bool:
    """Return True if the URL path ends with a blocklisted extension."""
    path = url.split("?", 1)[0].split("#", 1)[0].lower()
    dot = path.rfind(".")
    slash = path.rfind("/")
    if dot <= slash:
        return False
    return path[dot:] in BLOCKLISTED_EXTENSIONS
