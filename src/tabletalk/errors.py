"""Exception hierarchy shared across the toolkit."""


class TabletalkError(Exception):
    """Base class for all toolkit errors."""


# --- schema loading ---

class MalformedDocument(TabletalkError):
    pass


class DanglingReference(TabletalkError):
    pass


class MissingHeading(TabletalkError):
    pass


class BadTemplate(TabletalkError):
    pass


# --- template engine ---

class TemplateError(TabletalkError):
    pass


class UnbalancedBraces(TemplateError):
    pass


class UnknownGuard(TemplateError):
    pass


class EmptyLoopBody(TemplateError):
    pass


class UnboundAlias(TemplateError):
    pass


class MissingAttribute(TemplateError):
    pass


# --- data store ---

class HeaderMismatch(TabletalkError):
    pass


class UnknownRelation(TabletalkError):
    pass


class RaggedRow(TabletalkError):
    pass


class MalformedCsv(TabletalkError):
    pass


class NotUtf8(TabletalkError):
    pass


class DuplicateTable(TabletalkError):
    pass


class WrongRelation(TabletalkError):
    pass


class UnknownAttribute(TabletalkError):
    pass


# --- narrator ---

class UnknownStart(TabletalkError):
    pass


# --- SQL frontend ---

class SqlError(TabletalkError):
    pass


class SyntaxError_(SqlError):
    """Positioned parse error.

    Named with a trailing underscore to avoid shadowing the builtin.
    """

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at offset {position}")
        self.position = position
        self.expected = tuple(expected)


class Unsupported(SqlError):
    def __init__(self, construct, position=None):
        at = f" at offset {position}" if position is not None else ""
        super().__init__(f"unsupported construct: {construct}{at}")
        self.construct = construct
        self.position = position


class UnknownColumn(SqlError):
    pass


class AmbiguousColumn(SqlError):
    pass


# --- rewriter ---

class NotFlattenable(TabletalkError):
    pass
