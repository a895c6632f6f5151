"""Exception types shared across the library."""


class StretchlabError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(StretchlabError):
    """Material parameters violate the family's constraints."""


class DomainViolationError(StretchlabError):
    """An energy was evaluated outside its validity domain.

    When a stack of stretch triples was evaluated, ``index`` is the
    row-major position of the first invalid triple; otherwise it is None.
    """

    def __init__(self, message, index=None):
        self.index = index
        super().__init__(message)


class RestInstabilityError(StretchlabError):
    """The material carries a nonzero stress in the rest configuration."""


class UnreachableTargetError(StretchlabError):
    """The requested Lame parameters cannot be produced by this family."""


class NonSeparableFamilyError(StretchlabError):
    """The family's energy does not split into lambda- and mu-parts."""


class InvertedElementError(StretchlabError):
    """A tetrahedron was evaluated in an inverted (or out-of-domain) state."""

    def __init__(self, element_index, message=None):
        self.element_index = element_index
        super().__init__(f"element {element_index}: {message or 'inverted or out of domain'}")


class ConvergenceError(StretchlabError):
    """The quasi-static solve did not reach the force tolerance."""

    def __init__(self, message, residual_history=None):
        self.residual_history = list(residual_history or [])
        super().__init__(message)
