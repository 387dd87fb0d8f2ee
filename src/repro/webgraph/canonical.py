"""URL resolution and canonicalisation.

Real HTML rarely carries absolute URLs: hrefs are path-absolute
(``/data/file.csv``), relative (``../report``), or decorated with
fragments (``page#section``).  A crawler must resolve every href against
the page URL and canonicalise the result before frontier bookkeeping —
otherwise the same page appears under many URLs and "visit each page
once" breaks.

Canonical form: resolved absolute URL, scheme/host lowercased, default
ports dropped, fragment removed, empty path normalised to ``/``.

Most hrefs a crawler meets are plain absolute URLs (``PLAIN_ABSOLUTE``).
``urljoin`` returns such an href unchanged whatever the base: it has its
own netloc, and without a ``;`` re-assembling it loses at most an empty
``?`` or ``#``.  Its canonical form is cut out of the string, with no
``urljoin`` or ``urlsplit``.
"""

from __future__ import annotations

import re
from urllib.parse import urljoin, urlsplit, urlunsplit

_DEFAULT_PORTS = {"http": "80", "https": "443"}

#: An absolute http(s) URL with a lower-case dotted host, no port or
#: userinfo, and the rest printable ASCII without ``;``: its origin
#: (group 1), then path, query and fragment as written (group 2).
#: ``urlsplit`` of such a URL splits group 2 at its first ``#`` and then
#: its first ``?``; robots.txt matching (``repro.http.robots``) relies on
#: that too.
PLAIN_ABSOLUTE = re.compile(
    r"(https?://[a-z0-9-]+(?:\.[a-z0-9-]+)+)((?:[/?#][ -:<-~]*)?)\Z"
)


def canonicalize_url(url: str) -> str:
    """Canonicalise an absolute URL (see module docstring)."""
    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    host = (parts.hostname or "").lower()
    try:
        port = parts.port
    except ValueError:
        # Malformed netloc such as "//::" — urlsplit accepts it but
        # .port raises; treat it as having no usable port.
        port = None
    if port is not None and str(port) != _DEFAULT_PORTS.get(scheme):
        host = f"{host}:{port}"
    path = parts.path or "/"
    return urlunsplit((scheme, host, path, parts.query, ""))


def resolve_link(base_url: str, href: str) -> str:
    """Resolve one href against its page URL and canonicalise it."""
    plain = PLAIN_ABSOLUTE.match(href)
    if plain is None:
        return canonicalize_url(urljoin(base_url, href))
    origin, rest = plain.groups()
    path, _, query = rest.partition("#")[0].partition("?")
    return f"{origin}{path or '/'}?{query}" if query else origin + (path or "/")
