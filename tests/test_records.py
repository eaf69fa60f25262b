"""The library's records: immutable named tuples, compared and hashed by value."""

import math
import pickle
from random import Random

import pytest

from hyplobe import (
    DiskIsometry,
    DiskPoint,
    DomainError,
    EuclideanCircle,
    HyperbolicPolygon,
    TriangleSolution,
    build_figure1,
    circumcircle_fit,
    geodesic_through,
    optimal_alpha,
    optimality_certificate,
    random_convex_polygon,
    regular_polygon,
    solve_sas,
    steiner_move,
    steiner_optimize,
    verify,
)
from hyplobe.oracle import grid_search_max_area


def _records():
    """One instance of each record class, with its fields in declared order."""
    fig = build_figure1(1.0, 1.2, 0.9)
    poly = random_convex_polygon(5, 3)
    result = steiner_optimize(poly)
    return {
        fig.B: ("x", "y"),
        fig.omega: ("cx", "cy", "radius"),
        geodesic_through(fig.B, fig.C): ("direction", "circle"),
        DiskIsometry(DiskPoint(0.1, 0.2)): ("target", "phi"),
        solve_sas(1.0, 1.2, 0.9): ("a", "b", "c", "alpha", "beta", "gamma", "area"),
        fig: ("A", "B", "C", "omega", "psi", "b_prime", "tau"),
        optimal_alpha(1.0, 1.5): ("alpha_star", "solution"),
        optimality_certificate(fig): ("acb_angle", "tangency_gap", "residual"),
        poly: ("vertices", "side_lengths", "interior_angles", "area"),
        steiner_move(poly, 0): ("polygon", "accepted", "rejected"),
        result.trace[0]: ("iteration", "vertex", "area_after", "residual", "perimeter"),
        result: ("polygon", "trace", "converged", "sweeps", "residual", "moves_rejected"),
        circumcircle_fit(poly): ("center", "radius", "spread"),
        regular_polygon(5, 0.5): ("circumradius", "side", "interior_angle", "perimeter", "area"),
        grid_search_max_area(1.0, 1.2, 1000): ("alpha_hat", "area_hat", "grid_step"),
        verify.check_polar_round_trip(Random(8), 5): ("name", "passed", "detail"),
    }


class TestRecords:
    def test_every_record_class_is_covered(self):
        assert len({type(r) for r in _records()}) == 16

    def test_a_record_without_checks_or_methods_is_its_named_tuple(self):
        # five records check their fields or have methods, so they subclass
        # their named tuple, as CircumcircleFit still does until the fit is
        # deleted; the other ten are the named tuple itself, with no empty
        # subclass
        subclassed = {
            "DiskPoint", "EuclideanCircle", "DiskIsometry", "TriangleSolution",
            "HyperbolicPolygon", "CircumcircleFit",
        }
        classes = {type(r) for r in _records()}
        assert subclassed <= {cls.__name__ for cls in classes}
        for cls in classes:
            if cls.__name__ in subclassed:
                (base,) = cls.__bases__
                assert base.__bases__ == (tuple,) and base._fields == cls._fields, cls
            else:
                assert cls.__bases__ == (tuple,), cls

    def test_fields_in_declared_order(self):
        for record, fields in _records().items():
            assert type(record)._fields == fields
            assert [getattr(record, f) for f in fields] == list(record)

    def test_assignment_raises(self):
        for record, fields in _records().items():
            for name in (*fields, "not_a_field"):
                with pytest.raises(AttributeError):
                    setattr(record, name, 0.5)
            with pytest.raises(AttributeError):
                record.__dict__

    def test_value_equality_and_hash(self):
        for record in _records():
            twin = type(record)(*(getattr(record, f) for f in record._fields))
            assert twin == record and twin is not record
            assert hash(twin) == hash(record)
            assert pickle.loads(pickle.dumps(record)) == record
        assert DiskPoint(0.1, 0.2) != DiskPoint(0.1, 0.3)
        assert len({DiskPoint(0.1, 0.2), DiskPoint(0.1, 0.2), DiskPoint(0.2, 0.1)}) == 2

    def test_repr_names_each_field(self):
        for record in _records():
            fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
            assert repr(record) == f"{type(record).__name__}({fields})"
        assert repr(DiskIsometry(DiskPoint(0.25, -0.5))) == (
            "DiskIsometry(target=DiskPoint(x=0.25, y=-0.5), phi=0.0)"
        )

    def test_validated_records_refuse_bad_values(self):
        bad = [
            lambda: DiskPoint(0.8, 0.6),
            lambda: DiskPoint(math.nan, 0.0),
            lambda: DiskPoint(x=math.inf, y=0.0),
            lambda: EuclideanCircle(0.0, 0.0, 0.0),
            lambda: EuclideanCircle(math.inf, 0.0, 1.0),
            lambda: DiskIsometry(DiskPoint(0.1, 0.2), math.nan),
            lambda: DiskIsometry(DiskPoint(0.1, 0.2), phi=-math.inf),
            # a target that is not a DiskPoint, inside the disk or not
            lambda: DiskIsometry((0.5, 0.5), 0.1),
            lambda: DiskIsometry((0.9, 0.9)),
        ]
        sol = solve_sas(1.0, 1.2, 0.9)
        # an area that disagrees with the defect, and one below the normal floor
        for field, value in [
            ("a", -1.0), ("beta", 0.0), ("gamma", 3.0), ("area", 0.5), ("area", 1e-310),
        ]:
            values = {f: getattr(sol, f) for f in sol._fields} | {field: value}
            bad.append(lambda values=values: TriangleSolution(**values))
        # a polygon's fields must be its vertices' measurements to the bit
        poly = random_convex_polygon(5, 3)
        for fields in [
            poly._replace(area=math.nextafter(poly.area, math.inf)),
            poly._replace(side_lengths=poly.side_lengths[1:] + poly.side_lengths[:1]),
            poly._replace(vertices=poly.vertices[::-1]),
        ]:
            bad.append(lambda fields=fields: HyperbolicPolygon(*fields))
        for make in bad:
            with pytest.raises(DomainError):
                make()
