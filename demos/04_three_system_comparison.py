"""
No carpooling, carpooling beside transit, carpooling inside transit
===================================================================

The same demand is resolved under three rule sets: timetabled service
only, the better of a pure-transit and a pure-pool journey, and full
integration where one journey may mix both.  Modal split, occupancy,
detours, and the avoided car kilometres fall out of the comparison.
"""
from poollines.drivers import compute_driver_journeys, select_meeting_points
from poollines.geo import TravelModel
from poollines.gtfs import with_service_date
from poollines.injection import inject_poollines
from poollines.matching import FeasibilityRules
from poollines.planner import Planner
from poollines.reports import report_summary
from poollines.scenario import ScenarioConfig, generate_scenario
from poollines.simulation import EmissionModel, SystemVariant, run_comparison
from poollines.synthetic import CITY_SERVICE_DATE, build_synthetic_city, city_rectangles

model = TravelModel()
city = with_service_date(build_synthetic_city(), CITY_SERVICE_DATE)
points = select_meeting_points(city)

cfg = ScenarioConfig(
    rectangles=city_rectangles(),
    driver_density=0.0, rider_density=0.0,
    driver_count=240, rider_count=420,
    seed=3, area_km2=400.0,
)
scenario = generate_scenario(cfg)
journeys = {
    j.driver_id: j
    for j in compute_driver_journeys(list(scenario.drivers), points, model, seed=cfg.seed)
}
augmented = inject_poollines(city, list(journeys.values()), CITY_SERVICE_DATE)
planner = Planner(augmented, model)

result = run_comparison(
    scenario, planner, journeys, FeasibilityRules(), model, EmissionModel(),
    workers=2,
)

summary = report_summary(result)
figures = {v: summary["variants"][v.value] for v in SystemVariant}
modes = ("unserved", "foot", "carpooling", "multi_carpooling", "transit", "multimodal")

print(f"{len(scenario.riders)} riders, {len(journeys)} drivers; "
      f"shares below cover the half-hour stats window\n")
print(f"{'mode':<18}" + "".join(f"{v.value:>16}" for v in figures))
for mode in modes:
    row = "".join(f"{f['modal_split_pct'][mode]:>15.1f}%" for f in figures.values())
    print(f"{mode:<18}{row}")

print("\ndrivers by peak rider load:")
for v in (SystemVariant.CURRENT, SystemVariant.INTEGRATED):
    body = ", ".join(f"{k}: {n}" for k, n in figures[v]["occupancy_hist"].items())
    print(f"  {v.value:<12} {body}")

print("\neffective detours in the integrated system:")
for bin_name, count in figures[SystemVariant.INTEGRATED]["detour_ratio_hist"].items():
    print(f"  {bin_name:<7} {count}")

print(f"\nvkt saved {summary['vkt_saved_km']:.1f} km, "
      f"co2 saved {summary['co2_saved_kg_per_hour']:.1f} kg/h")
