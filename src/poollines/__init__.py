"""Carpool driver trips modelled as ephemeral single-trip transit lines.

The pipeline: read a GTFS feed, bend declared car trips through subway
meeting points, inject each as a one-trip line, plan rider journeys
over the combined network, and compare systems with and without the
integration.
"""
from .geo import GeoPoint, TravelModel, drive_seconds, haversine_km, road_km, walk_seconds
from .gtfs import (
    DanglingReference,
    GtfsError,
    GtfsStopTime,
    MalformedRow,
    MissingFile,
    Route,
    Stop,
    Timetable,
    Trip,
    format_gtfs_time,
    parse_gtfs,
    parse_gtfs_time,
    write_gtfs,
)
from .drivers import (
    Driver,
    DriverJourney,
    EmptyMeetingPointSet,
    JourneyStopTime,
    MeetingPointSet,
    compute_driver_journeys,
    pruned_length_km,
    select_meeting_points,
)
from .injection import (
    DuplicateDriverId,
    IdCollision,
    PoolLine,
    StopIdCollision,
    build_poolline,
    driver_id_of_trip,
    inject_poollines,
    is_poolline_trip,
)
from .planner import (
    FootpathSet,
    Itinerary,
    Leg,
    PlanMode,
    PlanRequest,
    Planner,
    build_footpaths,
)
from .matching import (
    FeasibilityRules,
    Rider,
    RiderMode,
    RiderOutcome,
    boardings_by_driver,
    classify,
    enforce_capacity,
    is_feasible,
    resolve_rider,
)
from .scenario import (
    Rectangle,
    Scenario,
    ScenarioConfig,
    Window,
    generate_scenario,
    read_agents,
    round_half_down,
    sample_point,
    write_agents,
)
from .simulation import (
    EmissionModel,
    SimulationReport,
    SimulationResult,
    SystemVariant,
    run_comparison,
    run_variant,
)

__version__ = "0.1.0"
