"""
Planning a rider across buses, subways, and poollines
=====================================================

Inject a batch of driver journeys into the city feed as single-trip
bus lines, then plan one rider door to door.  The same query against
the pool-free view shows what integration buys.
"""
from poollines.drivers import compute_driver_journeys, select_meeting_points
from poollines.geo import TravelModel
from poollines.gtfs import format_gtfs_time, with_service_date
from poollines.injection import inject_poollines
from poollines.planner import Planner, PlanMode, PlanRequest
from poollines.scenario import ScenarioConfig, generate_scenario
from poollines.synthetic import CITY_SERVICE_DATE, build_synthetic_city, city_rectangles

model = TravelModel()
city = with_service_date(build_synthetic_city(), CITY_SERVICE_DATE)
points = select_meeting_points(city)

cfg = ScenarioConfig(
    rectangles=city_rectangles(),
    driver_density=0.0, rider_density=0.0,
    driver_count=300, rider_count=60,
    seed=13, area_km2=400.0,
)
scenario = generate_scenario(cfg)
journeys = compute_driver_journeys(list(scenario.drivers), points, model, seed=cfg.seed)
augmented = inject_poollines(city, journeys, CITY_SERVICE_DATE)
print(f"augmented feed: {len(augmented.trips)} trips "
      f"({len(augmented.trips) - len(city.trips)} poollines)")

planner = Planner(augmented, model)


def show(it, label):
    print(f"\n{label}: depart {format_gtfs_time(it.depart)}, "
          f"arrive {format_gtfs_time(it.arrive)}, "
          f"walk {it.total_walk_km:.2f} km, wait {it.total_wait_s // 60} min")
    for leg in it.legs:
        via = f" on {leg.trip_id}" if leg.trip_id else ""
        print(f"  {format_gtfs_time(leg.start)} -> {format_gtfs_time(leg.end)}  "
              f"{leg.kind:<8}{via}  {leg.distance_km:.2f} km")


# Find a rider whose best integrated journey actually rides a poolline.
for rider in scenario.riders:
    req = PlanRequest(rider.origin, rider.destination, rider.departure_time)
    best = planner.earliest_arrival(req)
    if best.carpool_legs:
        break

print(f"\nrider {rider.rider_id}: "
      f"({rider.origin.lat:.4f}, {rider.origin.lon:.4f}) -> "
      f"({rider.destination.lat:.4f}, {rider.destination.lon:.4f})")
show(best, "integrated (pool trips allowed)")

no_pool = planner.earliest_arrival(
    PlanRequest(rider.origin, rider.destination, rider.departure_time,
                mode=PlanMode.TRANSIT_NO_POOL)
)
show(no_pool, "timetabled service only")
saved = no_pool.arrive - best.arrive
print(f"\nriding driver cars saves this rider {saved // 60} minutes")
