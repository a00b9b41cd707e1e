"""Pluggable routing schemes (see DESIGN.md section 5g).

Importing this package populates the scheme registry:

==============  ============  ====  =====================================
scheme          network kind  VCs   relation
==============  ============  ====  =====================================
``dxb``         md-crossbar   1     the paper: DOR + D-XB detour + S-XB
``adaptive``    md-crossbar   2     Duato minimal-adaptive, DOR escape
``hyperx_ft``   md-crossbar   2     fault-tolerant HyperX (2404.04315)
``mesh``        mesh          1     dimension-order routing
``torus``       torus         2     dateline dimension-order routing
``hypercube``   hypercube     1     e-cube routing
``fullmesh_novc``  fullmesh   1     single-VC valley routing (2510.14730)
==============  ============  ====  =====================================
"""

from .base import (
    RoutingScheme,
    SchemeAudit,
    SchemeRouteRelation,
)
from .registry import (
    DEFAULT_SCHEME_FOR_KIND,
    default_scheme,
    get_scheme,
    make_scheme,
    register_scheme,
    resolve_scheme,
    scheme_names,
)

# importing the scheme modules registers them
from .adaptive import AdaptiveScheme
from .baselines import HypercubeScheme, MeshScheme, TorusScheme
from .dxb import DXBScheme
from .fullmesh import FullMeshNoVCScheme
from .hyperx import HyperXFTScheme

__all__ = [
    "AdaptiveScheme",
    "DEFAULT_SCHEME_FOR_KIND",
    "DXBScheme",
    "FullMeshNoVCScheme",
    "HypercubeScheme",
    "HyperXFTScheme",
    "MeshScheme",
    "RoutingScheme",
    "SchemeAudit",
    "SchemeRouteRelation",
    "TorusScheme",
    "default_scheme",
    "get_scheme",
    "make_scheme",
    "register_scheme",
    "resolve_scheme",
    "scheme_names",
]
