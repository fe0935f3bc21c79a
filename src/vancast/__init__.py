"""vancast: vehicle-to-vehicle content distribution simulator.

A discrete-time simulator for collaborative file dissemination in a
vehicular network.  A small fraction of vehicles receives a full copy
of a file over the cellular downlink; everyone else collects coded
chunks opportunistically from passing traffic until they can decode.

The package splits into five layers, and a reader of the random stream:

* :mod:`vancast.roadnet`  - road graphs, generators, routing
* :mod:`vancast.mobility` - trip schedules and each day's timetable of motion
* :mod:`vancast.draws`    - numpy's PCG64 draws, made from bulk reads of its words
* :mod:`vancast.fountain` - random linear fountain codec over GF(256)
* :mod:`vancast.engine`   - contact detection, chunk exchange, sim loop
* :mod:`vancast.cli`      - command line front end and parameter sweeps
"""

from vancast.config import ExperimentConfig, SweepSpec, parse_config
from vancast.engine import (
    ChunkStore,
    Metrics,
    SimState,
    detect_contacts,
    exchange,
    provision_seeds,
    run,
    step,
    time_to_fraction,
)
from vancast.fountain import (
    CodedChunk,
    DecoderState,
    RankDeficientError,
    decode,
    derive_coefficients,
    encode,
)
from vancast.mobility import Trip, TripSchedule, assign_trips
from vancast.roadnet import (
    Edge,
    RoadGraph,
    Route,
    generate_manhattan_grid,
    load_road_graph,
    main_road_route,
    random_route,
    save_road_graph,
    shortest_path,
)

__version__ = "0.1.0"

__all__ = [
    "ChunkStore",
    "CodedChunk",
    "DecoderState",
    "Edge",
    "ExperimentConfig",
    "Metrics",
    "RankDeficientError",
    "RoadGraph",
    "Route",
    "SimState",
    "SweepSpec",
    "Trip",
    "TripSchedule",
    "assign_trips",
    "decode",
    "derive_coefficients",
    "detect_contacts",
    "encode",
    "exchange",
    "generate_manhattan_grid",
    "load_road_graph",
    "main_road_route",
    "parse_config",
    "provision_seeds",
    "random_route",
    "run",
    "save_road_graph",
    "shortest_path",
    "step",
    "time_to_fraction",
]
