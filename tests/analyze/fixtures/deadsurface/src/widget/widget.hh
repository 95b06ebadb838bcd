// dead-surface fixture: one header whose public surface has every
// caller pattern the pass tells apart.
#ifndef WIDGET_HH
#define WIDGET_HH

class Widget
{
  public:
    int live() const;        // called from tools/: clean
    int perfHook() const;    // called from perf/: clean
    int onlyTested() const;  // called only from a unit test: dead
    int allowedHook() const; // called only from a unit test: dead
    int helper() const;      // called only from widget.cc: internal
    int viaArrow() const;    // called through -> from tools/: clean
    // Called only from a unit test; src/gauge/gauge.cc reads an
    // unrelated field of the same name, which is no call: dead.
    int reading() const;

  private:
    int secret() const; // private: never reported
};

int widgetCount(); // called from tools/: clean

#endif
