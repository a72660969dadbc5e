"""The result of a rewriting: Q' plus its auxiliary views and provenance."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..blocks.query_block import QueryBlock, ViewDef
from ..blocks.to_sql import block_to_sql, view_to_sql


@dataclass(frozen=True)
class Rewriting:
    """A query Q' that is multiset-equivalent to Q and uses a view.

    ``aux_views`` are the auxiliary views the rewriting introduces (the
    ``Va`` of steps S4'/S5'); they are defined over the used view and must
    accompany ``query`` wherever it is executed or printed.
    """

    query: QueryBlock
    view_names: tuple[str, ...]
    strategy: str
    mapping_desc: str = ""
    aux_views: tuple[ViewDef, ...] = ()
    notes: tuple[str, ...] = field(default=())

    def extra_views(self) -> dict[str, ViewDef]:
        """Auxiliary view definitions keyed by name (for the engine)."""
        return {view.name: view for view in self.aux_views}

    def sql(self) -> str:
        """SQL text: auxiliary CREATE VIEW statements, then the query.

        Printed at most once per rewriting; the text is not pickled.
        """
        try:
            return object.__getattribute__(self, "_cached_sql")
        except AttributeError:
            pieces = [view_to_sql(v) + ";" for v in self.aux_views]
            pieces.append(block_to_sql(self.query))
            text = "\n\n".join(pieces)
            object.__setattr__(self, "_cached_sql", text)
            return text

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_cached_sql", None)
        return state

    def __str__(self) -> str:
        return self.sql()
