"""Figures 18–21: latency heterogeneity and stability on GCE and Rackspace.

Appendix 3 of the paper repeats the Fig. 1 / Fig. 2 measurements on Google
Compute Engine (50 n1-standard-1 instances) and Rackspace Cloud Server
(50 performance 1-1 instances): both providers show the same qualitative
picture — stable mean latencies with noticeable (if smaller than EC2)
heterogeneity.  One benchmark per provider regenerates both the CDF and the
stability trace.
"""

import pytest

from repro.analysis import cdf_points, empirical_cdf, format_series, format_table
from repro.cloud import collect_latency_trace, representative_links

from conftest import allocate_ids, make_cloud


def build_provider_figures(profile_name: str, seed: int):
    cloud = make_cloud(profile_name, seed=seed)
    ids = allocate_ids(cloud, 50)
    costs = cloud.true_cost_matrix(ids)
    latencies = costs.link_costs()

    links = representative_links(cloud, count=4, instance_ids=ids[:20])
    trace = collect_latency_trace(cloud, links, duration_hours=60.0,
                                  window_hours=4.0, samples_per_window=120, seed=0)
    return latencies, links, trace


PROVIDERS = [
    ("gce", 18, "Figures 18/19 — Google Compute Engine"),
    ("rackspace", 20, "Figures 20/21 — Rackspace Cloud Server"),
]


@pytest.mark.parametrize("profile_name, seed, title", PROVIDERS,
                         ids=[p[0] for p in PROVIDERS])
def test_fig18_21_other_providers(benchmark, emit, profile_name, seed, title):
    latencies, links, trace = benchmark.pedantic(
        build_provider_figures, args=(profile_name, seed), rounds=1, iterations=1)

    cdf = empirical_cdf(latencies)
    xs, qs = cdf_points(latencies, num_points=15)
    cdf_table = format_series(f"{title}: CDF of mean pairwise latency "
                              "(50 instances)", xs, qs,
                              x_label="mean latency [ms]", y_label="CDF")
    stability_rows = [
        (f"link {index + 1}", float(trace.series(link).mean()),
         trace.stability(link))
        for index, link in enumerate(links)
    ]
    stability_table = format_table(
        ["link", "overall mean [ms]", "coeff. of variation"],
        stability_rows,
        title=f"{title}: mean latency stability over 60 h",
    )
    summary = format_table(
        ["statistic", "value"],
        [
            ("p5 latency [ms]", cdf.quantile(0.05)),
            ("p95 latency [ms]", cdf.quantile(0.95)),
            ("p95 / p5 spread", cdf.quantile(0.95) / cdf.quantile(0.05)),
        ],
        title=f"{title}: heterogeneity summary",
    )
    emit(f"fig18_21_{profile_name}", cdf_table + "\n\n" + stability_table +
         "\n\n" + summary)

    # Heterogeneity exists (smaller than EC2 but present)…
    assert cdf.quantile(0.95) / cdf.quantile(0.05) > 1.2
    # …and mean latencies are stable over time.
    assert all(trace.stability(link) < 0.15 for link in links)
