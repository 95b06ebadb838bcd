// Shares a name with Widget::reading but never calls it.
struct Gauge
{
    int reading = 0;
};

int
gaugeReading(const Gauge &g)
{
    return g.reading;
}
