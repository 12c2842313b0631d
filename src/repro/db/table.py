"""Row storage for the in-memory database engine.

Rows are stored as plain dictionaries mapping column name to value.  A
:class:`Table` owns its schema, validates inserted rows, and maintains an
optional hash index on the primary key for point lookups (used by the ORM
substrate for lazy loads).

Beyond the primary-key index, tables maintain *lazy secondary hash indexes*
(:meth:`Table.index_for`) mapping a column value to the list of rows holding
it, and cache per-column distinct counts.  Both are built on first use and
invalidated whenever the table mutates (insert, update, clear), tracked by a
monotonically increasing :attr:`Table.version`.  The prepared point-lookup
fast path probes secondary indexes; the statistics catalog uses the cached
distinct counts.

Tables also expose a *columnar view* (:meth:`Table.columns`): one value list
per column, aligned by row position.  Like the secondary indexes it is built
lazily on first use and rebuilt when :attr:`Table.version` moves, so the
row dicts remain the single mutation/validation surface while the vectorized
executor (:mod:`repro.db.vectorized`) scans whole columns without touching
per-row dictionaries.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.db.schema import SchemaError, TableSchema

Row = dict

#: storage modes for the columnar view, from least to most encoded:
#: ``boxed`` keeps plain value lists, ``typed`` adds ``array('q')`` /
#: ``array('d')`` sidecars for int/float columns, ``dictionary`` (the
#: default) additionally dictionary-encodes string columns.
STORAGE_MODES = ("boxed", "typed", "dictionary")


class ColumnData(list):
    """One column of the columnar view: boxed values plus typed sidecars.

    Subclasses ``list`` so every existing consumer (batch kernels, gathers,
    ``zip``-based materialization) keeps working on the boxed values at zero
    adapter cost; the typed representation rides along in slots:

    - ``encoding``: ``"boxed"``, ``"int64"``, ``"float64"``, or ``"dict"``.
    - ``typed``: ``array('q')`` / ``array('d')`` of the non-null values
      (nulls stored as 0/0.0 — consult ``nulls``), or ``None`` when boxed.
    - ``nulls``: little-endian null bitmap ``bytearray`` (bit *i* set means
      row *i* is NULL), or ``None`` when the column contains no nulls.
    - ``dictionary`` / ``codes`` / ``code_of``: for ``"dict"`` encoding,
      the value dictionary (code -> string), the per-row code array
      (``array('q')``, ``-1`` for NULL), and the string -> code map used to
      translate filter literals once per pipeline.
    """

    __slots__ = ("encoding", "typed", "nulls", "dictionary", "codes", "code_of")

    def __init__(self, values=()):  # noqa: D107 - documented on the class
        super().__init__(values)
        self.encoding = "boxed"
        self.typed = None
        self.nulls = None
        self.dictionary = None
        self.codes = None
        self.code_of = None


def _null_bitmap(values: list) -> Optional[bytearray]:
    """Little-endian null bitmap for ``values``; ``None`` if no nulls."""
    bits: Optional[bytearray] = None
    for position, value in enumerate(values):
        if value is None:
            if bits is None:
                bits = bytearray((len(values) + 7) // 8)
            bits[position >> 3] |= 1 << (position & 7)
    return bits


def encode_column(values: list, mode: str) -> ColumnData:
    """Build one :class:`ColumnData`, inferring the physical representation.

    A column is typed only when every non-null value is exactly one of
    ``int`` / ``float`` / ``str`` (``bool`` stays boxed: it is a distinct
    type and must round-trip unchanged).  Anything mixed, empty, or
    surprising (e.g. ints too wide for 64 bits) falls back to the boxed
    list, which is always present and always authoritative.
    """
    data = ColumnData(values)
    if mode == "boxed" or not values:
        return data
    kinds = set(map(type, data))
    has_null = type(None) in kinds
    kinds.discard(type(None))
    if len(kinds) != 1:
        return data
    kind = next(iter(kinds))
    if kind is int:
        try:
            data.typed = array(
                "q", (0 if v is None else v for v in data) if has_null else data
            )
        except OverflowError:
            return data
        data.encoding = "int64"
    elif kind is float:
        data.typed = array(
            "d", (0.0 if v is None else v for v in data) if has_null else data
        )
        data.encoding = "float64"
    elif kind is str and mode == "dictionary":
        code_of: dict[str, int] = {}
        codes = array("q")
        append = codes.append
        for value in data:
            if value is None:
                append(-1)
            else:
                code = code_of.get(value)
                if code is None:
                    code = len(code_of)
                    code_of[value] = code
                append(code)
        data.encoding = "dict"
        data.codes = codes
        data.code_of = code_of
        data.dictionary = list(code_of)
    else:
        return data
    if has_null:
        data.nulls = _null_bitmap(data)
    return data


def scan_row_maker(schema: TableSchema, alias: str) -> Callable[[Row], Row]:
    """The scan output layout: a stored row's bare keys, then ``alias.column``.

    Every path that turns stored rows into scan output rows — the
    interpreted tier's scan, :meth:`Table.wide_rows` (codegen select
    templates) and the prepared point-lookup fast path — builds them here,
    so the layout cannot drift between tiers.  Stored rows hold every schema
    column in declaration order (:meth:`Table.prepare_row` guarantees it),
    so ``row.values()`` aligns with the qualified keys; one ``dict`` copy
    plus one ``update`` is the cheapest construction CPython offers for it.
    """
    qualified = tuple(f"{alias}.{name}" for name in schema.column_names)

    def make(row: Row) -> Row:
        wide = dict(row)
        wide.update(zip(qualified, row.values()))
        return wide

    return make


class Table:
    """An in-memory table: a schema plus a list of rows."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.rows: list[Row] = []
        self._pk_index: Optional[dict[Any, Row]] = (
            {} if schema.primary_key else None
        )
        #: column name -> {value: [rows]} lazy secondary indexes.
        self._indexes: dict[str, dict[Any, list[Row]]] = {}
        #: column name -> cached distinct non-null value count.
        self._distinct_cache: dict[str, int] = {}
        #: cached columnar view (column name -> :class:`ColumnData`) and the
        #: table version it was built against; rebuilt lazily when stale.
        self._columnar: Optional[dict[str, ColumnData]] = None
        self._columnar_version: int = -1
        #: physical representation picked on columnar rebuild; see
        #: :data:`STORAGE_MODES` and :meth:`set_storage_mode`.
        self._storage_mode: str = "dictionary"
        #: alias -> cached full-width output rows (bare + qualified keys)
        #: for that scan alias, plus the version they were built against.
        self._wide_rows: dict[str, list[Row]] = {}
        self._wide_version: int = -1
        #: bumped on every mutation; external caches may key on this.
        self.version: int = 0

    # -- mutation --------------------------------------------------------

    def prepare_row(self, row: Row) -> Row:
        """Validate and normalise one incoming row **without storing it**.

        Missing columns are filled with ``None``; unknown columns raise
        :class:`SchemaError`.  Returns the normalised stored-form dict —
        the write-ahead log records this form *before* it is applied, so a
        replayed insert reproduces the stored row exactly.
        """
        stored: Row = {}
        for column in self.schema.columns:
            stored[column.name] = row.get(column.name)
        unknown = set(row) - set(stored)
        if unknown:
            raise SchemaError(
                f"unknown columns {sorted(unknown)} for table "
                f"{self.schema.name!r}"
            )
        return stored

    def insert_stored(self, stored: Row) -> Row:
        """Store an already-normalised row produced by :meth:`prepare_row`.

        Subclasses hook here for additional filing (the sharded table files
        the stored dict into its home partition as well).
        """
        self.rows.append(stored)
        if self._pk_index is not None:
            key = stored[self.schema.primary_key]
            self._pk_index[key] = stored
        self._invalidate_caches()
        return stored

    def insert(self, row: Row) -> Row:
        """Insert one row (a mapping of column name to value).

        Missing columns are filled with ``None``; unknown columns raise
        :class:`SchemaError`.  Returns the stored row dict.
        """
        return self.insert_stored(self.prepare_row(row))

    def insert_many(self, rows: Iterable[Row]) -> int:
        """Insert many rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def adopt_row(self, stored: Row) -> Row:
        """Append an already-validated stored row dict *by reference*.

        Used by :class:`repro.db.sharding.ShardedTable` to file one stored
        dict both in its aggregate view and in the owning shard partition, so
        in-place updates are visible through every view without copying.  The
        caller is responsible for having validated ``stored`` against this
        table's schema (shard partitions share the parent's schema).
        """
        self.rows.append(stored)
        if self._pk_index is not None:
            self._pk_index[stored[self.schema.primary_key]] = stored
        self._invalidate_caches()
        return stored

    def clear(self) -> None:
        """Remove all rows."""
        self.rows.clear()
        if self._pk_index is not None:
            self._pk_index.clear()
        self._invalidate_caches()

    def plan_update(
        self, predicate, assignments: dict
    ) -> list[tuple[int, Row, dict]]:
        """Phase one of an update: compute every change **without mutating**.

        Evaluates ``predicate`` and the assignment expressions against every
        row's pre-statement state and returns ``(position, row, new_values)``
        triples for the rows that match.  Any error — an unknown column, a
        predicate or assignment callable raising mid-scan — surfaces here,
        *before* anything has been written, which is what makes UPDATE
        statements atomic: a failed statement leaves the table untouched.

        Because nothing is applied during this phase, every row naturally
        sees the pre-update state — SQL's simultaneous-assignment semantics
        (``set a = b, b = a`` swaps the columns) fall out without
        snapshotting.  The positions index into :attr:`rows` and are what
        the write-ahead log records (inserts are append-only, so positions
        are stable under replay).
        """
        for column in assignments:
            if not self.schema.has_column(column):
                raise SchemaError(
                    f"unknown column {column!r} in update on table "
                    f"{self.schema.name!r}"
                )
        planned: list[tuple[int, Row, dict]] = []
        for position, row in enumerate(self.rows):
            if not predicate(row):
                continue
            new_values = {
                column: (value(row) if callable(value) else value)
                for column, value in assignments.items()
            }
            planned.append((position, row, new_values))
        return planned

    def apply_update(self, changes: Iterable[tuple[Row, dict]]) -> int:
        """Phase two of an update: apply precomputed ``(row, new_values)``.

        The values were computed (and validated) by :meth:`plan_update`, so
        application cannot fail; primary-key moves are re-indexed exactly as
        before.  Also used in reverse by transaction rollback (applying the
        before-images) and by WAL replay (via :meth:`apply_update_at`).
        """
        primary_key = self.schema.primary_key
        updated = 0
        for row, new_values in changes:
            old_key = row[primary_key] if primary_key else None
            row.update(new_values)
            if self._pk_index is not None and row[primary_key] != old_key:
                # The update moved the row to a new primary key: drop the
                # stale entry (unless another row already claimed it) and
                # index the row under its new key.
                if self._pk_index.get(old_key) is row:
                    del self._pk_index[old_key]
                self._pk_index[row[primary_key]] = row
            updated += 1
        if updated:
            self._invalidate_caches()
        return updated

    def apply_update_at(self, changes: Iterable[tuple[int, dict]]) -> int:
        """Apply ``(row position, new_values)`` changes (WAL replay path).

        Positions refer to :attr:`rows` order, which is stable because
        storage is append-only and replay applies records in log order.
        """
        rows = self.rows
        return self.apply_update(
            (rows[position], new_values) for position, new_values in changes
        )

    def update_rows(self, predicate, assignments: dict) -> int:
        """Update rows matching ``predicate`` (a callable on a row dict).

        ``assignments`` maps column name to either a constant or a callable
        taking the row and returning the new value.  Callables are evaluated
        against the row's *pre-update* state — SQL's simultaneous-assignment
        semantics, so ``set a = b, b = a`` swaps the two columns instead of
        reading the value the first assignment just wrote.  Returns the
        number of rows updated.

        The update is **statement-atomic**: it runs as :meth:`plan_update`
        (compute and validate every change) followed by :meth:`apply_update`
        (write them all), so an error raised by the predicate or by an
        assignment on any row leaves the table completely unchanged.
        """
        planned = self.plan_update(predicate, assignments)
        return self.apply_update(
            (row, new_values) for _, row, new_values in planned
        )

    def truncate_to(self, length: int) -> int:
        """Remove every row past ``length`` (transaction-rollback undo).

        Inserts are append-only, so rolling back the inserts of an aborted
        transaction is a truncation back to the pre-transaction length.
        Returns the number of rows removed.
        """
        removed = self.rows[length:]
        if not removed:
            return 0
        del self.rows[length:]
        if self._pk_index is not None:
            primary_key = self.schema.primary_key
            for row in removed:
                if self._pk_index.get(row[primary_key]) is row:
                    del self._pk_index[row[primary_key]]
        self._invalidate_caches()
        return len(removed)

    def _invalidate_caches(self) -> None:
        self.version += 1
        if self._indexes:
            self._indexes.clear()
        if self._distinct_cache:
            self._distinct_cache.clear()
        self._columnar = None
        if self._wide_rows:
            self._wide_rows.clear()

    # -- access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def scan(self) -> Iterator[Row]:
        """Iterate over copies of all rows (callers may mutate results)."""
        for row in self.rows:
            yield dict(row)

    def lookup_pk(self, key: Any) -> Optional[Row]:
        """Point lookup by primary key; returns a copy or ``None``."""
        if self._pk_index is None:
            raise SchemaError(
                f"table {self.schema.name!r} has no primary key index"
            )
        row = self._pk_index.get(key)
        return dict(row) if row is not None else None

    def index_for(self, column: str) -> dict[Any, list[Row]]:
        """Secondary hash index: column value -> rows holding it.

        Built lazily on first use and cached until the table mutates.  NULL
        values are not indexed (they never match an equi-join key).  The
        returned rows are the stored dicts; callers must not mutate them.
        """
        index = self._indexes.get(column)
        if index is None:
            self.schema.column(column)
            index = {}
            for row in self.rows:
                value = row[column]
                if value is None:
                    continue
                bucket = index.get(value)
                if bucket is None:
                    index[value] = [row]
                else:
                    bucket.append(row)
            self._indexes[column] = index
        return index

    def columns(self) -> dict[str, ColumnData]:
        """Columnar view: column name -> :class:`ColumnData`, aligned by row.

        Built lazily from the row dicts on first use and cached until the
        table mutates (checked against :attr:`version`, like
        :meth:`index_for`).  Row dicts remain the mutation surface; the
        returned columns are positionally aligned with :attr:`rows` and must
        not be mutated by callers.  The vectorized executor scans these
        arrays instead of iterating row dictionaries; each column carries a
        typed/dictionary-encoded sidecar per :meth:`set_storage_mode`, which
        the codegen path specializes on.
        """
        cached = self._columnar
        if cached is not None and self._columnar_version == self.version:
            return cached
        rows = self.rows
        mode = self._storage_mode
        store = {
            name: encode_column([row[name] for row in rows], mode)
            for name in self.schema.column_names
        }
        self._columnar = store
        self._columnar_version = self.version
        return store

    def wide_rows(self, alias: str) -> list[Row]:
        """Full-width scan output rows for ``alias``, cached per version.

        A scan materializes each row with its bare keys followed by the
        alias-qualified keys.  Codegen select pipelines emit survivors as
        ``dict.copy`` of these prebuilt templates — a single C-level copy
        per output row instead of an 8-entry dict display — so the
        templates are cached here next to the columnar view and share its
        lifecycle: any mutation bumps :attr:`version` and drops them.
        Callers receive copies, never these dicts.
        """
        if self._wide_version != self.version:
            if self._wide_rows:
                self._wide_rows.clear()
            self._wide_version = self.version
        cached = self._wide_rows.get(alias)
        if cached is None:
            cached = list(map(scan_row_maker(self.schema, alias), self.rows))
            self._wide_rows[alias] = cached
        return cached

    def set_storage_mode(self, mode: str) -> None:
        """Choose the columnar representation (see :data:`STORAGE_MODES`).

        Takes effect on the next columnar rebuild; the row dicts are
        untouched, so this is purely a physical-layout knob.
        """
        if mode not in STORAGE_MODES:
            raise ValueError(
                f"unknown storage mode {mode!r}; expected one of "
                f"{STORAGE_MODES}"
            )
        if mode != self._storage_mode:
            self._storage_mode = mode
            self._columnar = None

    @property
    def storage_mode(self) -> str:
        return self._storage_mode

    def column_encodings(self) -> dict[str, str]:
        """Encoding per column of the *currently built* columnar view.

        Reads only the cached view — it never triggers a rebuild — so it is
        safe to call from stats paths without side effects.  Returns an
        empty dict when no fresh columnar view exists.
        """
        cached = self._columnar
        if cached is None or self._columnar_version != self.version:
            return {}
        return {name: column.encoding for name, column in cached.items()}

    @property
    def row_width(self) -> int:
        """Byte width of a full row according to the schema."""
        return self.schema.row_width

    def distinct_count(self, column: str) -> int:
        """Number of distinct non-null values in ``column`` (cached)."""
        cached = self._distinct_cache.get(column)
        if cached is None:
            self.schema.column(column)
            cached = len(
                {row[column] for row in self.rows if row[column] is not None}
            )
            self._distinct_cache[column] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.schema.name!r}, rows={len(self.rows)})"
