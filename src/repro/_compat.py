"""Shared deprecation plumbing for the public API.

Every deprecated surface in the library — legacy positional
:class:`~repro.core.engine.Repairer` arguments, the ``rng=`` spelling of
``seed``, the dict-row :class:`~repro.dataset.relation.Relation`
accessors — funnels through :func:`deprecated`, so every warning carries
the same release-tagged shape::

    <message> [deprecated since 2.0, scheduled for removal in 2.1]

Centralizing the call keeps the messages greppable (one format to search
release notes for) and makes the removal release a one-file audit: when
``remove_in`` ships, every call site of this helper is the checklist.
"""

from __future__ import annotations

import warnings

#: the release that introduced the current deprecation batch
CURRENT_RELEASE = "2.0"

#: the release in which the current deprecation batch is removed
NEXT_RELEASE = "2.1"


def deprecated(
    message: str,
    *,
    since: str = CURRENT_RELEASE,
    remove_in: str = NEXT_RELEASE,
    stacklevel: int = 3,
) -> None:
    """Emit the library's standard release-tagged ``DeprecationWarning``.

    *stacklevel* defaults to 3: helper -> deprecated callable -> caller,
    which points the warning at the user's line for the common shape
    ``def old(...): deprecated("..."); return new(...)``.
    """
    warnings.warn(
        f"{message} [deprecated since {since}, "
        f"scheduled for removal in {remove_in}]",
        DeprecationWarning,
        stacklevel=stacklevel,
    )
