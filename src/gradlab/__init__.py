"""Graph-of-groups calculus, subgroup chains, and gradient experiments."""

__version__ = "0.1.0"

from .errors import GradlabError, InvariantViolation, ResourceExhausted
from .words import (Presentation, Word, commutator, free_reduce, parse_word,
                    presentation_from_texts, product_presentation, render_word)
from .permgrp import Perm, PermGroup, subgroup_index
from .cosets import CosetTable, low_index_subgroups, todd_coxeter
from .homology import (GF2, GF3, QQ, ChainComplex, FieldSpec, Matrix, betti,
                       covering_complex, kunneth_product_dims)
from .gog import (AbelianBlock, Edge, FreeBlock, GraphOfGroups, SurfaceBlock,
                  VolumeVector, assembled_volume_vector, euler_characteristic,
                  graph_from_dict, subgroup_volume_vector)
from .towers import build_tower, catalog
from .chains import (Chain, ChainLevel, core_chain, cyclic_cover_chain,
                     fiber_restrict, homology_cover_chain, level_coset_table,
                     product_chain)
from .experiments import ExperimentConfig, GradientTable, emit_report, run_experiment
