"""SQL front end: lexer, parser, AST, binder, session entry points.

The supported subset covers everything the paper exercises:

- ``SELECT [DISTINCT] ... FROM`` with derived tables, ``[LEFT OUTER]
  JOIN ... ON``, ``WHERE`` (including ``IN`` lists and ``BETWEEN``),
  ``GROUP BY``, ``HAVING``, ``ORDER BY``, ``LIMIT/OFFSET``;
- aggregates ``COUNT(*) / COUNT(c) / COUNT(DISTINCT c) / SUM / MIN /
  MAX / AVG``;
- the virtual ``tid`` tuple-identifier column (used by the paper's NUC
  discovery query);
- DDL: ``CREATE TABLE``, ``DROP TABLE``, ``CREATE PATCHINDEX ... ON
  t(c) TYPE UNIQUE|SORTED [ASC|DESC] [MODE ...] [THRESHOLD ...]
  [SCOPE GLOBAL|PARTITION]``,
  ``DROP PATCHINDEX``, ``INSERT INTO ... VALUES``, ``DELETE FROM ...
  WHERE``, and ``EXPLAIN <query>``.
"""

from repro.sql.parser import parse_statement
from repro.sql.binder import Binder

__all__ = ["parse_statement", "Binder"]
