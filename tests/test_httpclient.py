from rposcan.httpclient import HttpRequest, HttpResponse, RateLimitedClient

DELAY = 0.020
OVERSLEEP = 0.005


class FakeClock:
    """Monotonic clock whose sleep always overshoots by OVERSLEEP."""

    def __init__(self) -> None:
        self.now = 100.0

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds + OVERSLEEP


class TimedClient:
    """Records the fake send time of each request, then takes `cost` seconds."""

    def __init__(self, clock: FakeClock, costs: list[float]) -> None:
        self._clock = clock
        self._costs = iter(costs)
        self.sends: list[float] = []

    def fetch(self, request: HttpRequest) -> HttpResponse:
        self.sends.append(self._clock.now)
        self._clock.now += next(self._costs)
        return HttpResponse(200, {}, b"", request.url)


def test_rate_limiter_spaces_actual_sends_despite_oversleep(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr("rposcan.httpclient.time.monotonic", clock.monotonic)
    monkeypatch.setattr("rposcan.httpclient.time.sleep", clock.sleep)
    # Fetch costs just under the delay: after one oversleep the next request
    # arrives past a slot booked from the planned (not actual) send time.
    costs = [0.0, 0.018, 0.003, 0.017, 0.019, 0.0, 0.016, 0.018, 0.019, 0.001]
    inner = TimedClient(clock, costs)
    client = RateLimitedClient(inner, DELAY)
    for i in range(len(costs)):
        client.fetch(HttpRequest(url=f"http://one.test/page{i}"))
    gaps = [after - before for before, after in zip(inner.sends, inner.sends[1:])]
    assert len(gaps) == len(costs) - 1
    assert min(gaps) >= DELAY - 1e-9, gaps
